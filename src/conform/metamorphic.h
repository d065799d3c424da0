// Metamorphic conformance oracles: transformations of a trial that must not
// change what the external observer records.
//
// Each oracle runs a plan twice — once plainly, once under a supposedly
// observation-neutral change — and diffs the recorded histories:
//
//   extension      run_rounds(k+m) ≡ run_rounds(k); run_rounds(m).  Exercises
//                  the simulator's incremental-extension contract, in
//                  particular the lost-in-flight flush/retract books.
//   permutation    renaming processes commutes with execution: running a
//                  renamed plan equals renaming the original history.
//   tracing        attaching a trace sink must not perturb the run at all
//                  (the observability layer's core promise).
//   cow            deep-copying every payload/state crossing a process
//                  boundary (severing all copy-on-write sharing) changes
//                  nothing — i.e. no component mutates a shared Value.
//   lockstep       the cross-simulator differential leg (conform/lockstep.h):
//                  the plan replayed on the event simulator.
//   transport      the socket transport leg (net/transport.h): the plan
//                  re-executed over encoded frames on loopback sockets, one
//                  OS thread per process.
//
// The two replay legs judge nothing themselves: each returns the sync
// history, its replayed history and its replay books' notes, and
// replay_findings below turns those into the leg's findings.
//
// Every oracle carries a deliberate-breakage hook so tests can prove it is
// able to fail (mutation testing); see each Options struct.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "check/plan.h"
#include "conform/diff.h"
#include "conform/lockstep.h"
#include "net/transport.h"

namespace ftss {

struct OracleResult {
  std::string oracle;  // "extension" | "permutation" | "tracing" | "cow" |
                       // "lockstep" | "transport"
  // False when the transformation is not meaning-preserving for this plan
  // (see skip_reason); such results are skipped, not failed.
  bool applicable = true;
  std::string skip_reason;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
  std::string describe() const;
};

struct ExtensionOptions {
  // TEST HOOK: model an engine that cannot extend — run the second segment
  // on a freshly-built simulator instead of continuing the first.
  bool restart_instead_of_extend = false;
};

// Splits the run after `split_at` rounds (clamped to [1, rounds-1]; plans
// with fewer than 2 rounds are inapplicable).
OracleResult check_extension(const TrialPlan& plan, int split_at,
                             const ExtensionOptions& options = {});

struct PermutationOptions {
  // TEST HOOK: diff the renamed run against the *unrenamed* baseline
  // history, which must disagree whenever the permutation moves a process
  // that matters.
  bool skip_history_rename = false;
};

// Applicable only to plans whose execution is invariant under renaming:
// round-agreement modes (their state is id-free) with no jitter and no
// probabilistic omissions (both draw from the RNG in id order, so renaming
// changes the draws).  `perm` maps old id -> new id.
OracleResult check_permutation(const TrialPlan& plan,
                               const std::vector<ProcessId>& perm,
                               const PermutationOptions& options = {});

struct TracingOptions {
  // TEST HOOK: diff the traced run against a run of this other plan instead
  // of the same one.
  const TrialPlan* baseline_override = nullptr;
};

OracleResult check_trace_transparency(const TrialPlan& plan,
                                      const TracingOptions& options = {});

// Transform applied to every Value crossing a process boundary in the
// instrumented leg.  Default (null) = conform/diff.h's deep_copy_value; a
// mutation test passes a tampering transform instead.
using PayloadTransform = std::function<Value(const Value&)>;

OracleResult check_cow_transparency(const TrialPlan& plan,
                                    const PayloadTransform& transform = {});

// A replay leg's findings: its books' notes (ReplayBooks::reports()), then
// every divergence diff_histories finds between the sync history and the
// leg's replayed one.  check_lockstep, check_transport and ftss_conform
// --lockstep/--transport all judge a leg by it.
std::vector<Divergence> replay_findings(std::vector<Divergence> notes,
                                        const History& sync,
                                        const History& replayed);

OracleResult check_lockstep(const TrialPlan& plan,
                            const LockstepOptions& options = {});

// The transport differential leg.  Options carry the corruption hooks
// (frame bit flips, truncation, duplication, loss, delay, payload
// mutation); with any hook armed the oracle is expected to fail — that is
// the mutation test proving the differ sees through the wire.
OracleResult check_transport(const TrialPlan& plan,
                             const TransportOptions& options = {});

}  // namespace ftss
