#include "check/trial_build.h"

#include "check/weakened.h"
#include "core/compiler.h"
#include "core/round_agreement.h"
#include "protocols/suite.h"

namespace ftss {

std::vector<std::unique_ptr<SyncProcess>> build_trial_processes(
    const TrialPlan& plan, std::string* error) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  if (plan.mode == TrialMode::kCompiled) {
    const ProtocolSpec* spec = find_protocol(plan.protocol);
    if (spec == nullptr) {
      if (error != nullptr) *error = "unknown protocol: " + plan.protocol;
      return procs;
    }
    CompilerOptions compiler_options;
    compiler_options.use_round_tags =
        plan.weakened != WeakenedKind::kCompilerNoRoundTags;
    procs = compile_protocol(plan.n, spec->make(plan.f_budget),
                             spec->inputs(plan.n), compiler_options);
  } else {
    const bool weak = plan.weakened == WeakenedKind::kRoundAgreementMaxRule;
    for (ProcessId p = 0; p < plan.n; ++p) {
      if (weak) {
        procs.push_back(std::make_unique<WeakRoundAgreementProcess>(p));
      } else {
        procs.push_back(std::make_unique<RoundAgreementProcess>(p));
      }
    }
  }
  return procs;
}

SyncConfig trial_sync_config(const TrialPlan& plan) {
  SyncConfig config;
  config.seed = plan.trial_seed;
  config.record_states = true;
  config.max_extra_delay = plan.max_extra_delay;
  config.threads = 0;
  return config;
}

void configure_trial(SyncSimulator& sim, const TrialPlan& plan) {
  for (const auto& c : plan.corruptions) {
    sim.corrupt_state(c.process, corruption_value(c));
  }
  for (ProcessId p = 0; p < plan.n; ++p) {
    FaultPlan fp = plan.fault_plan_for(p);
    if (!fp.empty()) sim.set_fault_plan(p, std::move(fp));
  }
}

}  // namespace ftss
