// The standard hand-built plan family the differential-leg tests share
// (conform_test.cc, transport_conform_test.cc, replay_books_test.cc).
#pragma once

#include "check/plan.h"

namespace ftss::testing {

// A clean Figure 1 system: no faults, no corruption, no jitter.
inline TrialPlan clean_plan() {
  TrialPlan plan;
  plan.trial_seed = 7;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 4;
  plan.rounds = 12;
  return plan;
}

// Crash + windowed send-omission + clock corruption: exercises fate
// attribution, crash gating and corruption replay in every oracle.
inline TrialPlan faulty_plan() {
  TrialPlan plan;
  plan.trial_seed = 21;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 5;
  plan.rounds = 16;
  plan.faults.push_back(
      FaultSpec{.process = 2, .kind = FaultSpec::Kind::kCrash, .onset = 7});
  plan.faults.push_back(FaultSpec{.process = 0,
                                  .kind = FaultSpec::Kind::kSendOmission,
                                  .onset = 3,
                                  .until = 6,
                                  .peer = 1});
  plan.corruptions.push_back(CorruptionSpec{
      .process = 1, .kind = CorruptionSpec::Kind::kClock, .magnitude = 4123});
  return plan;
}

// Jitter plus probabilistic receive-omission: fates and delivery rounds are
// genuinely random in the sync leg, all resolved from its history.
inline TrialPlan jittery_plan() {
  TrialPlan plan;
  plan.trial_seed = 33;
  plan.mode = TrialMode::kRoundAgreementJitter;
  plan.n = 4;
  plan.rounds = 20;
  plan.max_extra_delay = 3;
  plan.faults.push_back(FaultSpec{.process = 3,
                                  .kind = FaultSpec::Kind::kReceiveOmission,
                                  .onset = 2,
                                  .until = 9,
                                  .permille = 500});
  return plan;
}

inline TrialPlan compiled_plan() {
  TrialPlan plan;
  plan.trial_seed = 11;
  plan.mode = TrialMode::kCompiled;
  plan.protocol = "floodset-consensus";
  plan.n = 4;
  plan.f_budget = 1;
  plan.rounds = 18;
  plan.faults.push_back(
      FaultSpec{.process = 0, .kind = FaultSpec::Kind::kCrash, .onset = 5});
  return plan;
}

}  // namespace ftss::testing
