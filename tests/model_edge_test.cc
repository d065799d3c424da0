// Edge cases of the model types: fault-plan predicates, multi-event coterie
// timelines, and the generic Definition 2.4 checker with a custom Σ.
#include <gtest/gtest.h>

#include "core/predicates.h"
#include "core/round_agreement.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::round_agreement_system;

TEST(FaultPlanEdge, EmptyDetection) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_FALSE(FaultPlan::crash(3).empty());
  EXPECT_FALSE(FaultPlan::mute().empty());
  EXPECT_FALSE(FaultPlan::lossy(0.1, 0).empty());
  EXPECT_TRUE(FaultPlan::lossy(0, 0).empty());  // zero-rate rules are elided
}

TEST(FaultPlanEdge, OmissionRuleCoverage) {
  OmissionRule rule{.from_round = 3, .to_round = 5, .peer = 2};
  EXPECT_FALSE(rule.covers(2, 2));
  EXPECT_TRUE(rule.covers(3, 2));
  EXPECT_TRUE(rule.covers(5, 2));
  EXPECT_FALSE(rule.covers(6, 2));
  EXPECT_FALSE(rule.covers(4, 1));
  OmissionRule all{};  // every peer, every round
  EXPECT_TRUE(all.covers(1, 0));
  EXPECT_TRUE(all.covers(1'000'000, 7));
}

TEST(CoterieTimeline, MultipleRevealsProduceMultipleChanges) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(4));
  sim.set_fault_plan(2, FaultPlan::hide_until(4));
  sim.set_fault_plan(3, FaultPlan::hide_until(9));
  sim.run_rounds(12);
  EXPECT_EQ(sim.history().coterie_change_rounds(),
            (std::vector<Round>{4, 9}));
  EXPECT_EQ(sim.history().last_coterie_change(), 9);
  // Definition 2.4 holds across BOTH de-stabilizing events.
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok);
}

TEST(CheckFtssGeneric, CustomSigmaOverWindows) {
  // A custom Σ: "clock parity is uniform among correct processes" — true
  // whenever clocks agree, so it must pass with stab 1; and a Σ that is
  // always false must pinpoint the first stable window.
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.corrupt_state(1, testing::clock_state(44));
  sim.run_rounds(8);

  WindowPredicate parity = [](const History& h, Round from, Round to,
                              const std::vector<bool>& faulty) {
    for (Round r = from; r <= to; ++r) {
      std::optional<Round> parity_seen;
      for (int p = 0; p < h.n; ++p) {
        if (faulty[p] || !h.at(r).clock[p]) continue;
        const Round par = ((*h.at(r).clock[p]) % 2 + 2) % 2;
        if (!parity_seen) {
          parity_seen = par;
        } else if (*parity_seen != par) {
          return false;
        }
      }
    }
    return true;
  };
  EXPECT_TRUE(check_ftss(sim.history(), 1, parity).ok);

  WindowPredicate never = [](const History&, Round, Round,
                             const std::vector<bool>&) { return false; };
  auto result = check_ftss(sim.history(), 1, never);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("[2, 8]"), std::string::npos);
}

TEST(CheckFtssGeneric, StabTimeLongerThanEveryWindowIsVacuous) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(2));
  sim.run_rounds(5);
  WindowPredicate never = [](const History&, Round, Round,
                             const std::vector<bool>&) { return false; };
  EXPECT_TRUE(check_ftss(sim.history(), 5, never).ok);
}

TEST(HistoryEdge, DeliveryRoundEqualsSendRoundWithoutJitter) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.run_rounds(4);
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      EXPECT_EQ(s.delivery_round, rec.round);
    }
  }
}

TEST(HistoryEdge, DelayedDeliveriesRecordedAtDeliveryRound) {
  SyncSimulator sim(SyncConfig{.seed = 3, .max_extra_delay = 3},
                    round_agreement_system(3));
  sim.run_rounds(10);
  std::int64_t total_messages = 0;
  std::int64_t still_in_flight = 0;
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      if (s.fate == Fate::kLostInFlight) {
        // Flushed into the final record; its delivery was scheduled past the
        // end of the run.
        EXPECT_EQ(rec.round, 10);
        EXPECT_GT(s.delivery_round, rec.round);
        ++still_in_flight;
      } else {
        EXPECT_EQ(s.delivery_round, rec.round);  // resolved in its own round
      }
      ++total_messages;
    }
  }
  // Every sent message now resolves exactly once: delivered, dropped, or
  // flushed as still-in-flight at the end of the run.
  EXPECT_EQ(total_messages, 10 * 9);
  EXPECT_LE(still_in_flight, 3 * 6);
}

}  // namespace
}  // namespace ftss
