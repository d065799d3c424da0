// The transport differential oracle: net/transport.h's socket leg exposed
// under the conformance result shape.  Lives here (not in net/) so the net
// library stays free of conform dependencies: net returns raw histories and
// the replay books' notes, this file appends the shared differ's findings.
#include "conform/metamorphic.h"

#include "net/transport.h"

namespace ftss {

OracleResult check_transport(const TrialPlan& plan,
                             const TransportOptions& options) {
  OracleResult out;
  out.oracle = "transport";

  TransportResult result = run_transport_trial(plan, options);
  if (!result.supported) {
    out.applicable = false;
    out.skip_reason = result.unsupported_reason;
    return out;
  }
  out.divergences = std::move(result.notes);
  for (Divergence& d :
       diff_histories(result.sync_history, result.transport_history)) {
    out.divergences.push_back(std::move(d));
  }
  return out;
}

}  // namespace ftss
