// Theorem 3: the Figure 1 protocol ftss-solves round agreement with
// stabilization time 1.  Deterministic scenarios plus property sweeps over
// (n, f, corruption magnitude, seed).
#include "core/round_agreement.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/predicates.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/numeric.h"

namespace ftss {
namespace {

using testing::clock_state;
using testing::clocks_at;
using testing::round_agreement_system;

TEST(RoundAgreement, CleanStartCountsRounds) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.run_rounds(5);
  const auto& h = sim.history();
  for (Round r = 1; r <= 5; ++r) {
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(h.at(r).clock[p], std::optional<Round>(r));
    }
  }
}

TEST(RoundAgreement, CorruptedClocksConvergeInOneRound) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(4));
  sim.corrupt_state(0, clock_state(100));
  sim.corrupt_state(1, clock_state(-7));
  sim.corrupt_state(2, clock_state(3));
  sim.run_rounds(4);
  const auto& h = sim.history();
  // Start of round 2: everyone adopted max(100, -7, 3, 1) + 1 = 101.
  EXPECT_EQ(clocks_at(h, 2), (std::vector<Round>{101, 101, 101, 101}));
  EXPECT_EQ(clocks_at(h, 3), (std::vector<Round>{102, 102, 102, 102}));
}

TEST(RoundAgreement, MeasuredStabilizationIsOneRound) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(4));
  sim.corrupt_state(0, clock_state(50));
  sim.run_rounds(6);
  auto m = measure_round_agreement(sim.history());
  ASSERT_TRUE(m.time().has_value());
  EXPECT_LE(*m.time(), 1);
}

TEST(RoundAgreement, SurvivesGarbageTypedState) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.corrupt_state(0, Value("not even a map"));
  sim.corrupt_state(1, Value::array({Value(1), Value::map({{"x", Value()}})}));
  sim.run_rounds(4);
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok);
}

TEST(RoundAgreement, IgnoresGarbagePayloadFields) {
  // A peer whose state was corrupted to a non-int clock broadcasts garbage;
  // the protocol's tolerant parse must skip it and still converge.
  SyncSimulator sim(SyncConfig{}, round_agreement_system(2));
  sim.corrupt_state(0, Value::map({{"c", Value("garbage")}}));
  sim.run_rounds(3);
  auto m = measure_round_agreement(sim.history());
  ASSERT_TRUE(m.time().has_value());
  EXPECT_LE(*m.time(), 1);
}

TEST(RoundAgreement, ToleratesCrashFaults) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(4));
  sim.corrupt_state(2, clock_state(77));
  sim.set_fault_plan(3, FaultPlan::crash(2));
  sim.run_rounds(6);
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok);
}

TEST(RoundAgreement, HiddenRevealIsExcusedByCoterieChange) {
  // The Theorem 1 scenario, checked under Definition 2.4: the reveal makes
  // correct clocks jump, but the jump coincides with a coterie change, so
  // the ftss check with stabilization time 1 still passes.
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.corrupt_state(2, clock_state(1000));
  sim.set_fault_plan(2, FaultPlan::hide_until(6));
  sim.run_rounds(10);
  const auto& h = sim.history();
  EXPECT_EQ(h.last_coterie_change(), 6);
  // Correct clocks jumped when 1000-ish tags arrived.
  EXPECT_FALSE(rate_violation_rounds(h, 1, h.length(), h.faulty()).empty());
  EXPECT_TRUE(check_round_agreement_ftss(h, 1).ok);
}

TEST(RoundAgreement, StabilizationTimeZeroIsNotAchievable) {
  // Theorem 3 is tight: with corrupted clocks, round 1 itself cannot satisfy
  // agreement, so the ftss check with stabilization time 0 fails.
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.corrupt_state(0, clock_state(42));
  sim.run_rounds(5);
  EXPECT_FALSE(check_round_agreement_ftss(sim.history(), 0).ok);
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok);
}

TEST(RoundAgreement, GeneralOmissionFaultyMinorityDoesNotDisturb) {
  SyncSimulator sim(SyncConfig{.seed = 3}, round_agreement_system(5));
  sim.corrupt_state(0, clock_state(-999));
  sim.corrupt_state(4, clock_state(555));
  sim.set_fault_plan(1, FaultPlan::lossy(0.5, 0.5));
  sim.set_fault_plan(2, FaultPlan::lossy(0.3, 0.0));
  sim.run_rounds(30);
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok)
      << check_round_agreement_ftss(sim.history(), 1).violation;
}

TEST(RoundAgreement, RestoreStateMapsGarbageDeterministically) {
  RoundAgreementProcess a(0);
  RoundAgreementProcess b(0);
  Value garbage = Value::array({Value("x"), Value(3)});
  a.restore_state(garbage);
  b.restore_state(garbage);
  EXPECT_EQ(a.round_counter(), b.round_counter());
}

TEST(RoundAgreement, SnapshotRoundTrips) {
  RoundAgreementProcess a(0, 42);
  RoundAgreementProcess b(0);
  b.restore_state(a.snapshot_state());
  EXPECT_EQ(b.round_counter(), std::optional<Round>(42));
}

// Figure 1's transition on hand-built inboxes, for both variants.  The
// simulator only ever delivers integer tags from live peers; these inboxes
// also carry corrupted payloads, tags at the int64 limits (clamped to
// ±kTagClampMagnitude) and negative tags.
TEST(RoundAgreement, EndRoundAdoptsMaxClampedTagPlusOne) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto tag = [](std::int64_t c) {
    return Message{.sender = 1,
                   .payload = Value::map({{"type", Value("ROUND")},
                                          {"p", Value(1)},
                                          {"c", Value(c)}})};
  };
  const auto payload = [](Value v) {
    return Message{.sender = 1, .payload = std::move(v)};
  };
  const std::vector<Message> garbage = {
      payload(Value::map({{"c", Value("7")}})),
      payload(Value::map({{"type", Value("ROUND")}, {"p", Value(1)}})),
      payload(Value(9)),
      payload(Value::array({Value("c"), Value(9)}))};
  std::vector<Message> mixed = garbage;
  mixed.insert(mixed.begin() + 1, tag(kMin));
  mixed.push_back(tag(-7));
  mixed.insert(mixed.begin() + 3, tag(-7));

  struct Case {
    const char* name;
    Round initial;
    std::vector<Message> inbox;
    Round next;          // both variants, unless the uniform one halts
    bool uniform_halts;  // a tag other than `initial` was delivered
  };
  const Case cases[] = {
      {"empty", 5, {}, 6, false},
      {"empty, counter above the tag clamp", kMax, {}, kTagClampMagnitude + 1,
       false},
      {"garbage only", 5, garbage, 6, false},
      {"garbage only, counter below the tag clamp", kMin, garbage,
       -kTagClampMagnitude + 1, false},
      {"int64 limits", 5, {tag(kMin), tag(kMax)}, kTagClampMagnitude + 1,
       true},
      {"int64 max alone", kMax, {tag(kMax), tag(kMax)},
       kTagClampMagnitude + 1, false},
      {"int64 min alone", 5, {tag(kMin)}, -kTagClampMagnitude + 1, true},
      {"negative tags", -3, {tag(-3), tag(-10)}, -2, true},
      {"equal negative tags", -3, {tag(-3), tag(-3)}, -2, false},
      {"tags below the counter", 100, {tag(-3), tag(4)}, 5, true},
      {"mixed", 5, mixed, -6, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RoundAgreementProcess plain(0, c.initial);
    plain.end_round(c.inbox);
    EXPECT_EQ(plain.round_counter(), std::optional<Round>(c.next));

    UniformRoundAgreementProcess uniform(0, c.initial);
    uniform.end_round(c.inbox);
    EXPECT_EQ(uniform.halted(), c.uniform_halts);
    EXPECT_EQ(uniform.round_counter(),
              std::optional<Round>(c.uniform_halts ? c.initial : c.next));
  }
}

TEST(RoundAgreement, RandomizedCoterieChangeSchedulesStabilizeInOneRound) {
  // Corrupted-c_p recovery under randomized coterie-change schedules: every
  // clock is corrupted, and several staggered hiders reveal at random rounds
  // (each reveal is a de-stabilizing event that can leak a huge hidden
  // clock).  Theorem 3's bound is exact on every schedule — agreement is
  // re-established one round after the coterie stops changing, and the
  // stab-0 check usually fails, so the excused round is really needed.
  // (Usually, not always: a schedule with n-1 hiders leaves one correct
  // process, whose agreement is trivial even at stabilization time 0.)
  int destabilized_runs = 0;
  int stab_zero_failures = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 101 + 7);
    const int n = static_cast<int>(rng.uniform(4, 8));
    SyncSimulator sim(SyncConfig{.seed = seed, .record_states = false},
                      round_agreement_system(n));
    for (int p = 0; p < n; ++p) {
      sim.corrupt_state(p, clock_state(rng.uniform(-1'000'000, 1'000'000)));
    }
    const int hiders = static_cast<int>(rng.uniform(1, n - 1));
    for (int idx : rng.sample(n, hiders)) {
      sim.set_fault_plan(idx, FaultPlan::hide_until(rng.uniform(3, 18)));
    }
    sim.run_rounds(40);
    const auto& h = sim.history();

    const auto strict = check_round_agreement_ftss(h, 1);
    EXPECT_TRUE(strict.ok) << "seed=" << seed << ": " << strict.violation;
    if (!check_round_agreement_ftss(h, 0).ok) ++stab_zero_failures;

    const auto m = measure_round_agreement(h);
    ASSERT_TRUE(m.time().has_value()) << "seed=" << seed;
    EXPECT_LE(*m.time(), 1) << "seed=" << seed;
    if (h.last_coterie_change() >= 3) ++destabilized_runs;
  }
  // The sweep must actually have exercised mid-run coterie changes, not
  // just the initial corruption, and the stab-1 bound must be tight in the
  // overwhelming majority of schedules.
  EXPECT_GT(destabilized_runs, 10);
  EXPECT_GT(stab_zero_failures, 20);
}

// --- Theorem 3's proof invariant --------------------------------------------

// The crux of the proof: whenever two correct processes disagree on the
// round number at the start of round i, some process u entered the coterie
// at round i-1 or i (u's out-of-date tag reached one of them but not the
// other, and the receiver's relay completes u's influence over all correct
// processes one round later).  We check the executable form: a disagreement
// round is always within one round of a coterie change.
TEST(RoundAgreement, DisagreementImpliesAdjacentCoterieChange) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31);
    const int n = static_cast<int>(rng.uniform(3, 8));
    SyncSimulator sim(SyncConfig{.seed = seed, .record_states = false},
                      round_agreement_system(n));
    for (int p = 0; p < n; ++p) {
      sim.corrupt_state(p, clock_state(rng.uniform(-5000, 5000)));
    }
    const int f = static_cast<int>(rng.uniform(0, (n - 1) / 2 + 1));
    for (int idx : rng.sample(n, f)) {
      if (rng.chance(0.5)) {
        sim.set_fault_plan(idx, FaultPlan::hide_until(rng.uniform(2, 20)));
      } else {
        sim.set_fault_plan(idx, FaultPlan::lossy(0.5, 0.4));
      }
    }
    sim.run_rounds(40);
    const auto& h = sim.history();
    const auto faulty = h.faulty();
    auto changed_at = [&](Round r) {
      return r >= 2 && h.at(r).coterie != h.at(r - 1).coterie;
    };
    // Round 1 is excused (the systemic failure itself); afterwards every
    // disagreement must sit next to a coterie change.
    for (Round r : disagreement_rounds(h, 2, h.length(), faulty)) {
      EXPECT_TRUE(changed_at(r) || changed_at(r - 1) ||
                  (r + 1 <= h.length() && changed_at(r + 1)))
          << "seed=" << seed << " disagreement at " << r
          << " with no adjacent coterie change";
    }
  }
}

// --- Property sweep: Theorem 3 over random adversaries ---------------------

struct Thm3Param {
  int n;
  int f;
  std::int64_t magnitude;
  std::uint64_t seed;
};

class Theorem3Sweep : public ::testing::TestWithParam<Thm3Param> {};

TEST_P(Theorem3Sweep, FtssSolvesRoundAgreementWithStabilizationOne) {
  const auto param = GetParam();
  Rng rng(param.seed);

  SyncSimulator sim(SyncConfig{.seed = param.seed, .record_states = false},
                    round_agreement_system(param.n));
  // Corrupt every clock (systemic failure hits the whole system).
  for (int p = 0; p < param.n; ++p) {
    sim.corrupt_state(
        p, clock_state(rng.uniform(-param.magnitude, param.magnitude)));
  }
  // Make f random processes general-omission faulty (mix of behaviors).
  for (int idx : rng.sample(param.n, param.f)) {
    switch (rng.uniform(0, 3)) {
      case 0:
        sim.set_fault_plan(idx, FaultPlan::crash(rng.uniform(1, 10)));
        break;
      case 1:
        sim.set_fault_plan(idx, FaultPlan::lossy(0.5, 0.3));
        break;
      case 2:
        sim.set_fault_plan(idx, FaultPlan::hide_until(rng.uniform(2, 12)));
        break;
      default:
        sim.set_fault_plan(idx, FaultPlan::mute());
        break;
    }
  }
  sim.run_rounds(40);

  auto result = check_round_agreement_ftss(sim.history(), 1);
  EXPECT_TRUE(result.ok) << result.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem3Sweep,
    ::testing::Values(
        Thm3Param{2, 0, 10, 1}, Thm3Param{2, 1, 1000, 2},
        Thm3Param{4, 1, 10, 3}, Thm3Param{4, 1, 1'000'000, 4},
        Thm3Param{5, 2, 1000, 5}, Thm3Param{8, 3, 1000, 6},
        Thm3Param{8, 3, 1'000'000, 7}, Thm3Param{16, 5, 1000, 8},
        Thm3Param{16, 7, 1'000'000, 9}, Thm3Param{32, 10, 1000, 10},
        Thm3Param{5, 2, 1000, 11}, Thm3Param{5, 2, 1000, 12},
        Thm3Param{5, 2, 1000, 13}, Thm3Param{9, 4, 100, 14},
        Thm3Param{9, 4, 100, 15}, Thm3Param{9, 4, 100, 16},
        Thm3Param{12, 5, 1'000'000'000, 17}, Thm3Param{3, 1, 5, 18},
        Thm3Param{6, 2, 50, 19}, Thm3Param{24, 11, 10'000, 20}),
    [](const ::testing::TestParamInfo<Thm3Param>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_f" +
             std::to_string(param_info.param.f) + "_mag" +
             std::to_string(param_info.param.magnitude) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ftss
