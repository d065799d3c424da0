// "Synchronous, but not perfectly synchronized" systems (§3's opening
// remark): bounded delivery jitter of up to Δ extra rounds.
//
// Findings encoded here (see EXP10 for the sweep):
//  * Figure 1 survives jitter UNCHANGED, and still reaches EXACT agreement:
//    a process always hears its own broadcast, so its clock advances +1
//    every round locally, and stale remote tags (value c−d for delay d) can
//    never exceed a synchronized process's own value.  Only stabilization
//    lengthens — the corrupted maximum takes up to Δ extra rounds per hop to
//    spread.  This substantiates §3's "readily adapt" for the round
//    agreement protocol;
//  * the Figure 3 compiler as published REQUIRES the perfectly synchronous
//    model: with jitter, same-round tag matching fails and Π is starved —
//    ITS adaptation needs a tag-tolerance window, which is effectively what
//    the asynchronous §3 protocol's re-sends and buffering provide.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/predicates.h"
#include "core/round_agreement.h"
#include "protocols/floodset.h"
#include "protocols/repeated.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::clock_state;
using testing::round_agreement_system;

// Max clock spread among correct processes at the start of round r.
Round spread_at(const History& h, Round r, const std::vector<bool>& faulty) {
  std::optional<Round> lo, hi;
  for (int p = 0; p < h.n; ++p) {
    if (faulty[p] || !h.at(r).alive[p] || !h.at(r).clock[p]) continue;
    const Round c = *h.at(r).clock[p];
    lo = lo ? std::min(*lo, c) : c;
    hi = hi ? std::max(*hi, c) : c;
  }
  return (lo && hi) ? *hi - *lo : 0;
}

TEST(Jitter, ZeroDelayMatchesLockstepBehavior) {
  SyncSimulator a(SyncConfig{.seed = 5, .max_extra_delay = 0},
                  round_agreement_system(4));
  SyncSimulator b(SyncConfig{.seed = 5}, round_agreement_system(4));
  a.run_rounds(10);
  b.run_rounds(10);
  for (Round r = 1; r <= 10; ++r) {
    for (int p = 0; p < 4; ++p) {
      EXPECT_EQ(a.history().at(r).clock[p], b.history().at(r).clock[p]);
    }
  }
}

TEST(Jitter, DelayedMessagesArriveWithinBound) {
  SyncSimulator sim(SyncConfig{.seed = 6, .max_extra_delay = 3},
                    round_agreement_system(3));
  sim.run_rounds(20);
  int delayed = 0;
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      if (s.fate != Fate::kDelivered) continue;
      // delivery_round is the record's round; the send round is recoverable
      // from the payload's clock for this protocol — just bound the count.
      if (s.sender != s.dest) ++delayed;
    }
  }
  EXPECT_GT(delayed, 0);
}

TEST(Jitter, SelfDeliveryIsNeverDelayed) {
  SyncSimulator sim(SyncConfig{.seed = 7, .max_extra_delay = 5},
                    round_agreement_system(2));
  sim.run_rounds(10);
  // A process always hears itself, so its clock advances every round.
  const auto& h = sim.history();
  for (Round r = 1; r < 10; ++r) {
    for (int p = 0; p < 2; ++p) {
      EXPECT_GE(*h.at(r + 1).clock[p], *h.at(r).clock[p] + 1);
    }
  }
}

TEST(Jitter, OmissionWindowsUseTheRightRounds) {
  // Send-omission rules are evaluated at the SEND round; receive-omission
  // rules at the DELIVERY round.  With delays up to 3 rounds, a receive
  // window [6,9] must also drop messages SENT in rounds 3..5 that arrive
  // inside the window, and must not drop ones sent inside the window that
  // arrive after it.
  FaultPlan deaf_window;
  deaf_window.receive_omissions.push_back(
      OmissionRule{.from_round = 6, .to_round = 9});
  SyncSimulator sim(SyncConfig{.seed = 13, .max_extra_delay = 3},
                    round_agreement_system(2));
  sim.set_fault_plan(1, deaf_window);
  sim.run_rounds(15);
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      if (s.sender != 0 || s.dest != 1) continue;
      if (s.fate == Fate::kDroppedByReceiver) {
        EXPECT_GE(s.delivery_round, 6);
        EXPECT_LE(s.delivery_round, 9);
      } else if (s.fate == Fate::kDelivered && rec.round >= 6 &&
                 rec.round <= 9) {
        ADD_FAILURE() << "message delivered to 1 inside its deaf window at "
                      << rec.round;
      }
    }
  }
}

TEST(Jitter, SentRoundIsRecordedAndBoundedByJitter) {
  SyncSimulator sim(SyncConfig{.seed = 21, .max_extra_delay = 3},
                    round_agreement_system(4));
  sim.run_rounds(25);
  int lagged = 0;
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      if (s.fate == Fate::kLostInFlight) {
        // End-of-run flush: scheduled delivery lies past the last round.
        ASSERT_GT(s.delivery_round, rec.round);
        continue;
      }
      ASSERT_EQ(s.delivery_round, rec.round);
      const Round lag = s.delivery_round - s.sent_round;
      if (s.sender == s.dest) {
        EXPECT_EQ(lag, 0);
      } else {
        EXPECT_GE(lag, 0);
        EXPECT_LE(lag, 3);
        if (lag > 0) ++lagged;
      }
    }
  }
  EXPECT_GT(lagged, 0);
}

TEST(Jitter, ReceiveOmissionCrossesWindowBoundariesByDeliveryRound) {
  // The sharp version of OmissionWindowsUseTheRightRounds, using the
  // recorded sent_round: with delays up to 3 and a deaf window [6,9], the
  // interesting schedules are messages sent BEFORE the window that arrive
  // inside it (must drop) and messages sent INSIDE it that arrive after it
  // (must deliver).  Both directions must actually occur in the run for the
  // test to prove anything.
  FaultPlan deaf_window;
  deaf_window.receive_omissions.push_back(
      OmissionRule{.from_round = 6, .to_round = 9});
  SyncSimulator sim(SyncConfig{.seed = 13, .max_extra_delay = 3},
                    round_agreement_system(3));
  sim.set_fault_plan(2, deaf_window);
  sim.run_rounds(30);
  int dropped_late_arrival = 0;  // sent < 6, delivered in [6,9]
  int escaped_the_window = 0;    // sent in [6,9], delivered > 9
  for (const auto& rec : sim.history().rounds) {
    for (const auto& s : rec.sends) {
      if (s.dest != 2 || s.sender == 2) continue;
      const bool in_window = s.delivery_round >= 6 && s.delivery_round <= 9;
      EXPECT_EQ(s.fate == Fate::kDroppedByReceiver, in_window)
          << "sent " << s.sent_round << " delivered " << s.delivery_round;
      if (in_window && s.sent_round < 6) ++dropped_late_arrival;
      if (!in_window && s.sent_round >= 6 && s.sent_round <= 9) {
        ++escaped_the_window;
      }
    }
  }
  EXPECT_GT(dropped_late_arrival, 0);
  EXPECT_GT(escaped_the_window, 0);
}

TEST(Jitter, ReceiveOmissionUnderJitterStillStabilizes) {
  // delay > 0 × receive-omission × corrupted clocks: Figure 1 still reaches
  // exact agreement within the EXP10 bound of 10 + 4Δ rounds after the last
  // de-stabilizing event.
  const int delta = 2;
  FaultPlan deaf;
  deaf.receive_omissions.push_back(OmissionRule{.from_round = 1, .to_round = 12});
  SyncSimulator sim(SyncConfig{.seed = 31, .max_extra_delay = delta},
                    round_agreement_system(5));
  sim.set_fault_plan(3, deaf);
  sim.corrupt_state(0, clock_state(5'000'000));
  sim.corrupt_state(3, clock_state(-77));
  sim.run_rounds(60);
  const auto result =
      check_round_agreement_eventual(sim.history(), 10 + 4 * delta);
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST(Jitter, CausalityRespectsDeliveryTime) {
  // A message delayed by d rounds must not create influence before arrival.
  FaultPlan only_to_0;  // process 2 talks to 0 only (and itself)
  only_to_0.send_omissions.push_back(OmissionRule{.peer = 1});
  SyncSimulator sim(SyncConfig{.seed = 8, .max_extra_delay = 4},
                    round_agreement_system(3));
  sim.set_fault_plan(2, only_to_0);
  sim.run_rounds(12);
  const auto& h = sim.history();
  // Coterie membership of 2 (reaching 1 via relay through 0) must be
  // monotone and eventually true; never true before any of 2's messages was
  // actually delivered.
  bool seen = false;
  for (Round r = 1; r <= h.length(); ++r) {
    if (h.at(r).coterie[2]) seen = true;
    if (seen) {
      EXPECT_TRUE(h.at(r).coterie[2]);
    }
  }
  EXPECT_TRUE(seen);
}

class JitterSpreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitterSpreadSweep, Figure1StillReachesExactAgreement) {
  const int delta = GetParam();
  SyncSimulator sim(SyncConfig{.seed = 9, .max_extra_delay = delta},
                    round_agreement_system(5));
  for (int p = 0; p < 5; ++p) {
    sim.corrupt_state(p, clock_state(100 * p));
  }
  sim.run_rounds(60);
  const auto& h = sim.history();
  const auto faulty = h.faulty();
  // After a warmup of a few Δ: exact agreement AND the +1 rate, i.e. the
  // full Assumption 1 — unchanged Figure 1 handles bounded jitter.
  for (Round r = 10 + 4 * delta; r <= h.length(); ++r) {
    EXPECT_EQ(spread_at(h, r, faulty), 0) << "round " << r;
    if (r < h.length()) {
      EXPECT_TRUE(rate_holds_between(h, r, faulty)) << "round " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, JitterSpreadSweep,
                         ::testing::Values(0, 1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "delta" + std::to_string(param_info.param);
                         });

TEST(Jitter, CompilerRequiresPerfectSynchrony) {
  // Honest negative result: the Figure 3 compiler's same-round tag matching
  // starves Π under jitter — no iteration completes cleanly.  This is why
  // the paper's asynchronous §3 protocol re-sends and buffers instead of
  // tag-matching exactly.
  const int n = 4, f = 1;
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  InputSource inputs = [](ProcessId p, std::int64_t iteration) {
    return Value(100 * iteration + p);
  };
  SyncSimulator sim(SyncConfig{.seed = 10, .max_extra_delay = 2},
                    compile_protocol(n, protocol, inputs));
  sim.run_rounds(40);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   consensus_validity_any(inputs, n));
  int clean = 0;
  for (const auto& it : analysis.iterations) {
    if (RepeatedAnalysis::clean(it, true)) ++clean;
  }
  // Under jitter 2, most iterations are dirty (suspect sets starve Π).
  EXPECT_LT(clean, static_cast<int>(analysis.iterations.size()) / 2 + 1);
}

}  // namespace
}  // namespace ftss
