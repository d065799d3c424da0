// The sync-simulator golden grid: the plans, the fingerprint fold and the
// pinned constants, in one table.  golden_fingerprint_test.cc pins it, and
// parallel_round_test.cc re-asserts every case at several lane counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "obs/trace.h"
#include "sim/history_dump.h"
#include "util/fnv.h"

namespace ftss::testing {

// One sync-simulator golden case: run the plan with full state recording,
// fold the verbose history dump, the metrics fingerprint and (optionally)
// the trace tape's JSONL into one FNV fingerprint.
inline std::uint64_t sync_fingerprint(const TrialPlan& plan, bool traced) {
  TraceTape tape;
  TrialRunOptions options;
  options.record_states = true;
  History history;
  options.history_out = &history;
  if (traced) options.trace = &tape;
  const TrialResult result = run_trial(plan, options);

  DumpOptions dump;
  dump.show_sends = true;
  dump.show_suspects = true;
  std::uint64_t fp = kFnv1aBasis;
  fp = fnv1a_bytes(fp, history_to_string(history, dump));
  fp = fnv1a_bytes(fp, std::to_string(result.metrics.fingerprint()));
  for (const auto& v : result.evaluation.violations) {
    fp = fnv1a_bytes(fp, v.oracle);
  }
  if (traced) fp = fnv1a_bytes(fp, trace_to_jsonl(tape));
  return fp;
}

inline TrialPlan sync_plan(std::uint64_t seed, int n) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = n;
  plan.rounds = 30;
  plan.faults.push_back(FaultSpec{.process = 1,
                                  .kind = FaultSpec::Kind::kCrash,
                                  .onset = 9});
  plan.corruptions.push_back(CorruptionSpec{
      .process = 0, .kind = CorruptionSpec::Kind::kClock, .magnitude = 4123});
  return plan;
}

inline TrialPlan jitter_plan(std::uint64_t seed, int n, int max_extra_delay) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kRoundAgreementJitter;
  plan.n = n;
  plan.rounds = 40;
  plan.max_extra_delay = max_extra_delay;
  plan.faults.push_back(FaultSpec{.process = 2,
                                  .kind = FaultSpec::Kind::kReceiveOmission,
                                  .onset = 5,
                                  .until = 12,
                                  .permille = 500});
  plan.corruptions.push_back(CorruptionSpec{.process = 1,
                                            .kind = CorruptionSpec::Kind::kGarbage,
                                            .magnitude = 64,
                                            .value_seed = seed * 3 + 1});
  return plan;
}

inline TrialPlan compiled_plan(std::uint64_t seed, const std::string& protocol,
                               int n, int f, int max_extra_delay) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kCompiled;
  plan.protocol = protocol;
  plan.n = n;
  plan.f_budget = f;
  plan.rounds = 36;
  plan.max_extra_delay = max_extra_delay;
  plan.faults.push_back(FaultSpec{.process = 0,
                                  .kind = FaultSpec::Kind::kCrash,
                                  .onset = 7});
  if (f >= 2) {
    plan.faults.push_back(FaultSpec{.process = 1,
                                    .kind = FaultSpec::Kind::kSendOmission,
                                    .onset = 3,
                                    .until = 10,
                                    .peer = 2});
  }
  plan.corruptions.push_back(CorruptionSpec{
      .process = n - 1, .kind = CorruptionSpec::Kind::kClock, .magnitude = 997});
  return plan;
}

struct GoldenCase {
  const char* name;
  TrialPlan plan;
  bool traced;
  std::uint64_t want;
};

// Pinned on the pre-rewrite (std::map message plane, vector<bool> influence,
// std::set suspects) implementation; the rewritten plane must reproduce
// every one byte-for-byte.
inline std::vector<GoldenCase> golden_cases() {
  return {
      {"sync/n4/seed7", sync_plan(7, 4), false, 0xc9eed893f838c016},
      {"sync/n4/seed7/traced", sync_plan(7, 4), true, 0xa88e386fb597faae},
      {"sync/n6/seed20", sync_plan(20, 6), false, 0x3499fa276758ccf1},
      {"jitter/n4/d2/seed11", jitter_plan(11, 4, 2), false, 0x356d9460bf79b1e6},
      {"jitter/n4/d2/seed11/traced", jitter_plan(11, 4, 2), true, 0xceecf8df6be581b6},
      {"jitter/n6/d3/seed13", jitter_plan(13, 6, 3), false, 0x340136ae8bc3890c},
      {"compiled/floodset/n4/f1/seed5", compiled_plan(5, "floodset-consensus", 4, 1, 0),
       false, 0x6b10f404b6488224},
      {"compiled/floodset/n4/f1/seed5/traced",
       compiled_plan(5, "floodset-consensus", 4, 1, 0), true, 0x1d9416d9253c4bff},
      {"compiled/floodset/n8/f2/d1/seed9",
       compiled_plan(9, "floodset-consensus", 8, 2, 1), false, 0xd386235ad0028cfb},
      {"compiled/ic/n5/f1/seed3", compiled_plan(3, "interactive-consistency", 5, 1, 0),
       false, 0x3a824576517a9583},
      {"compiled/rbcast/n5/f2/d2/seed17",
       compiled_plan(17, "reliable-broadcast", 5, 2, 2), true, 0x1403bbc0c46ddc95},
  };
}

}  // namespace ftss::testing
