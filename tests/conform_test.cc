// Conformance-harness tests (ctest label: conform).
//
// Three layers:
//   1. the differ and history transforms (diff_histories, fingerprints,
//      deep_copy_value, permute round trips) on histories we construct;
//   2. each oracle on hand-built plans — once proving it *passes* on a
//      conforming system, and once through its deliberate-breakage hook
//      proving it *can fail* (mutation testing: an oracle that cannot fail
//      verifies nothing);
//   3. the seeded sweep — >=200 sampled plans across every system under
//      test, zero divergences, with the aggregate fingerprint pinned so any
//      behavior change in either engine or any oracle shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "check/shrink.h"
#include "conform/conform.h"
#include "plan_family.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::clean_plan;
using testing::compiled_plan;
using testing::faulty_plan;
using testing::jittery_plan;

History run_sync(int n, int rounds, std::uint64_t seed) {
  SyncConfig config;
  config.seed = seed;
  config.record_states = true;
  SyncSimulator sim(config, testing::round_agreement_system(n));
  sim.run_rounds(rounds);
  return sim.history();
}

std::vector<ProcessId> rotation(int n) {
  std::vector<ProcessId> perm(n);
  for (int p = 0; p < n; ++p) perm[p] = (p + 1) % n;
  return perm;
}

// The lock-step leg judged as check_lockstep and ftss_conform judge it.
std::vector<Divergence> findings(const LockstepResult& r) {
  return replay_findings(r.notes, r.sync_history, r.event_history);
}

// --- Layer 1: the differ and history transforms -------------------------

TEST(ConformDiff, IdenticalRunsHaveNoDivergences) {
  const History a = run_sync(4, 10, 1);
  const History b = run_sync(4, 10, 1);
  EXPECT_TRUE(diff_histories(a, b).empty());
  EXPECT_EQ(history_fingerprint(a), history_fingerprint(b));
}

TEST(ConformDiff, LengthMismatchIsReported) {
  const History a = run_sync(4, 10, 1);
  const History b = run_sync(4, 8, 1);
  const std::vector<Divergence> ds = diff_histories(a, b);
  ASSERT_FALSE(ds.empty());
  EXPECT_EQ(ds.front().kind, "length");
  EXPECT_NE(history_fingerprint(a), history_fingerprint(b));
}

TEST(ConformDiff, DeepCopyIsEqualButIndependent) {
  Value v;
  v["type"] = Value("ROUND");
  v["c"] = Value(3);
  Value inner;
  inner["x"] = Value(9);
  v["nested"] = inner;

  Value copy = deep_copy_value(v);
  EXPECT_EQ(copy, v);
  copy["c"] = Value(4);
  EXPECT_EQ(v.at("c").as_int(), 3);
}

TEST(ConformDiff, PermuteHistoryRoundTripsThroughInverse) {
  const History h = run_sync(5, 8, 3);
  const std::vector<ProcessId> perm = rotation(5);
  std::vector<ProcessId> inverse(perm.size());
  for (int p = 0; p < 5; ++p) inverse[perm[p]] = p;
  const History back = permute_history(permute_history(h, perm), inverse);
  EXPECT_TRUE(diff_histories(h, back).empty());
  EXPECT_EQ(history_fingerprint(h), history_fingerprint(back));
}

// With state recording off the state column is left empty, and the differ,
// the fingerprint and the renaming all read it as the all-null column it
// stands for.
TEST(ConformDiff, EmptyStateColumnReadsAsAllNull) {
  SyncConfig config;
  config.seed = 2;
  config.record_states = false;
  SyncSimulator sim(config, testing::round_agreement_system(5));
  sim.corrupt_state(1, testing::clock_state(40));
  sim.run_rounds(6);
  const History empty = sim.history();
  History nulls = empty;
  for (RoundRecord& rec : nulls.rounds) {
    ASSERT_TRUE(rec.state.empty());
    rec.state.resize(nulls.n);
  }
  EXPECT_EQ(history_fingerprint(empty), history_fingerprint(nulls));
  EXPECT_TRUE(diff_histories(empty, nulls).empty());
  EXPECT_TRUE(diff_histories(nulls, empty).empty());
  const History renamed = permute_history(empty, rotation(5));
  EXPECT_TRUE(renamed.rounds.front().state.empty());
  EXPECT_EQ(history_fingerprint(renamed),
            history_fingerprint(permute_history(nulls, rotation(5))));

  // A recorded state still differs from the null an empty column reads as.
  History one = nulls;
  one.rounds.front().state[2] = testing::clock_state(7);
  EXPECT_NE(history_fingerprint(one), history_fingerprint(empty));
  const std::vector<Divergence> ds = diff_histories(empty, one);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(describe(ds.front()), "state@1: p2: null vs {\"c\":7}");
}

// A replay leg's findings are its books' notes, in order, then every
// history diff: a divergence the books do not note still fails the leg.
TEST(ConformDiff, ReplayFindingsAreNotesThenHistoryDiffs) {
  const History a = run_sync(4, 10, 1);
  const History b = run_sync(4, 8, 1);
  const std::vector<Divergence> notes = {{"metrics", 10, "first"},
                                         {"schedule", 3, "second"}};
  const std::vector<Divergence> diffs = diff_histories(a, b);
  ASSERT_FALSE(diffs.empty());
  const std::vector<Divergence> found = replay_findings(notes, a, b);
  ASSERT_EQ(found.size(), notes.size() + diffs.size());
  for (std::size_t i = 0; i < found.size(); ++i) {
    const Divergence& want =
        i < notes.size() ? notes[i] : diffs[i - notes.size()];
    EXPECT_EQ(describe(found[i]), describe(want)) << "finding " << i;
  }
  EXPECT_TRUE(replay_findings({}, a, a).empty());
}

// --- Layer 2: oracles pass on conforming systems ------------------------

TEST(ConformLockstep, AgreesOnCleanPlan) {
  const LockstepResult r = run_lockstep_trial(clean_plan());
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const std::vector<Divergence> found = findings(r);
  EXPECT_TRUE(found.empty()) << describe(found.front());
  EXPECT_EQ(history_fingerprint(r.sync_history),
            history_fingerprint(r.event_history));
  EXPECT_NE(history_fingerprint(r.sync_history), 0u);
}

TEST(ConformLockstep, AgreesUnderCrashOmissionAndCorruption) {
  const LockstepResult r = run_lockstep_trial(faulty_plan());
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const std::vector<Divergence> found = findings(r);
  EXPECT_TRUE(found.empty()) << describe(found.front());
  EXPECT_EQ(history_fingerprint(r.sync_history),
            history_fingerprint(r.event_history));
}

TEST(ConformLockstep, AgreesUnderJitterAndProbabilisticDrops) {
  const LockstepResult r = run_lockstep_trial(jittery_plan());
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const std::vector<Divergence> found = findings(r);
  EXPECT_TRUE(found.empty()) << describe(found.front());
}

TEST(ConformLockstep, AgreesOnCompiledProtocol) {
  const LockstepResult r = run_lockstep_trial(compiled_plan());
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const std::vector<Divergence> found = findings(r);
  EXPECT_TRUE(found.empty()) << describe(found.front());
}

TEST(ConformLockstep, IsDeterministic) {
  const LockstepResult a = run_lockstep_trial(jittery_plan());
  const LockstepResult b = run_lockstep_trial(jittery_plan());
  ASSERT_TRUE(a.supported && b.supported);
  EXPECT_EQ(history_fingerprint(a.sync_history),
            history_fingerprint(b.sync_history));
  EXPECT_EQ(history_fingerprint(a.event_history),
            history_fingerprint(b.event_history));
}

// The tick stagger places process p's tick at r*64+p, before the round's
// deliveries at r*64+48 — systems wider than the delivery offset cannot be
// driven in lock-step and must be rejected, not silently mis-scheduled.
TEST(ConformLockstep, RejectsSystemsWiderThanTheTickStagger) {
  TrialPlan plan = clean_plan();
  plan.n = 60;
  plan.rounds = 4;
  const LockstepResult r = run_lockstep_trial(plan);
  EXPECT_FALSE(r.supported);
  EXPECT_FALSE(r.unsupported_reason.empty());
}

TEST(ConformOracles, ExtensionHoldsAcrossSplits) {
  const TrialPlan plan = faulty_plan();
  for (const int split : {1, plan.rounds / 2, plan.rounds - 1}) {
    const OracleResult r = check_extension(plan, split);
    ASSERT_TRUE(r.applicable) << r.skip_reason;
    EXPECT_TRUE(r.ok()) << "split " << split << ": " << r.describe();
  }
}

TEST(ConformOracles, ExtensionHoldsUnderJitter) {
  // The lost-in-flight flush/retract path: jitter leaves messages in flight
  // at the split point, which run_rounds provisionally flushes and the
  // extension must retract.
  const OracleResult r = check_extension(jittery_plan(), 10);
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(ConformOracles, PermutationHoldsOnRenamableSystem) {
  const TrialPlan plan = normalize_for_permutation(faulty_plan());
  const OracleResult r = check_permutation(plan, rotation(plan.n));
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(ConformOracles, PermutationSkipsIdDependentPlans) {
  EXPECT_FALSE(check_permutation(jittery_plan(), rotation(4)).applicable)
      << "jitter draws follow id order";
  EXPECT_FALSE(check_permutation(compiled_plan(), rotation(4)).applicable)
      << "compiled protocols take id-dependent inputs";
  const TrialPlan plan = clean_plan();
  const std::vector<ProcessId> not_a_perm = {0, 0, 1, 2};
  EXPECT_FALSE(check_permutation(plan, not_a_perm).applicable);
}

TEST(ConformOracles, TracingIsTransparent) {
  const OracleResult r = check_trace_transparency(faulty_plan());
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(ConformOracles, CowSharingIsTransparent) {
  const OracleResult r = check_cow_transparency(faulty_plan());
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_TRUE(r.ok()) << r.describe();
}

// --- Layer 2b: mutation tests — every oracle must be able to fail -------

TEST(ConformMutation, LockstepCatchesASuppressedDelivery) {
  LockstepOptions broken;
  broken.drop_delivery_index = 0;
  const LockstepResult r = run_lockstep_trial(clean_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  EXPECT_FALSE(findings(r).empty()) << "a swallowed delivery must diverge";
  EXPECT_NE(history_fingerprint(r.sync_history),
            history_fingerprint(r.event_history));
}

TEST(ConformMutation, ExtensionCatchesAnEngineThatRestarts) {
  ExtensionOptions broken;
  broken.restart_instead_of_extend = true;
  const OracleResult r =
      check_extension(faulty_plan(), faulty_plan().rounds / 2, broken);
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_FALSE(r.ok()) << "replaying the suffix from scratch must diverge";
}

TEST(ConformMutation, PermutationCatchesAMissingRename) {
  // The crash in faulty_plan() moves under the rotation, so diffing the
  // renamed run against the *unrenamed* baseline must disagree.
  PermutationOptions broken;
  broken.skip_history_rename = true;
  const TrialPlan plan = normalize_for_permutation(faulty_plan());
  const OracleResult r = check_permutation(plan, rotation(plan.n), broken);
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_FALSE(r.ok()) << "skipping the history rename must diverge";
}

TEST(ConformMutation, TracingCatchesABaselineMismatch) {
  const TrialPlan other = clean_plan();
  TracingOptions broken;
  broken.baseline_override = &other;
  const OracleResult r = check_trace_transparency(faulty_plan(), broken);
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_FALSE(r.ok()) << "a different baseline plan must diverge";
}

TEST(ConformMutation, CowCatchesATamperingTransform) {
  // Instead of a pure deep copy, bump every round counter crossing the
  // process boundary — a model of a component that mutates shared Values.
  const PayloadTransform tamper = [](const Value& v) {
    Value copy = deep_copy_value(v);
    if (copy.is_map() && copy.contains("c") && copy.at("c").is_int()) {
      copy["c"] = Value(copy.at("c").as_int() + 1);
    }
    return copy;
  };
  const OracleResult r = check_cow_transparency(faulty_plan(), tamper);
  ASSERT_TRUE(r.applicable) << r.skip_reason;
  EXPECT_FALSE(r.ok()) << "a tampering transform must diverge";
}

// --- Layer 2c: divergent plans shrink to pinned reproducers -------------

TEST(ConformShrink, InjectedLockstepDivergenceShrinks) {
  const TrialPlan original = faulty_plan();
  LockstepOptions broken;
  broken.drop_delivery_index = 0;
  auto still_fails = [&broken](const TrialPlan& candidate) {
    const LockstepResult r = run_lockstep_trial(candidate, broken);
    return r.supported && !findings(r).empty();
  };
  ASSERT_TRUE(still_fails(original));
  const PlanShrinkResult s = shrink_plan(original, still_fails, 120);
  EXPECT_TRUE(still_fails(s.plan)) << "shrinking must preserve the failure";
  EXPECT_GT(s.steps_accepted, 0) << "faults/corruptions/rounds should drop";
  EXPECT_LE(s.plan.rounds, original.rounds);
  EXPECT_LE(s.plan.faults.size() + s.plan.corruptions.size(),
            original.faults.size() + original.corruptions.size());
}

// --- Layer 3: the seeded sweep ------------------------------------------

TEST(ConformSweep, StandardSweepIsCleanAndPinned) {
  ConformConfig config;
  config.seed = 42;
  config.trials = 240 * testing::trial_scale();
  const ConformReport report = conform_sweep(config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.trials, 200);

  // Coverage: at least 3 distinct compiled protocols plus both
  // round-agreement modes must appear among the sampled systems.
  EXPECT_GE(report.systems.size(), 5u) << report.summary();
  // Every oracle ran on a nontrivial share of the sweep.
  for (const char* oracle :
       {"lockstep", "transport", "extension", "permutation", "tracing",
        "cow"}) {
    ASSERT_TRUE(report.oracles.count(oracle)) << oracle;
    EXPECT_GT(report.oracles.at(oracle).ran, 0) << oracle;
    EXPECT_EQ(report.oracles.at(oracle).failed, 0) << oracle;
  }

  if (testing::trial_scale() == 1) {
    EXPECT_EQ(report.fingerprint, 0x0c39c50191664c9eULL)
        << "sweep fingerprint 0x" << std::hex << report.fingerprint;
  }
}

TEST(ConformSweep, FingerprintIsThreadCountInvariant) {
  ConformConfig config;
  config.seed = 99;
  config.trials = 24;
  config.jobs = 1;
  const ConformReport serial = conform_sweep(config);
  config.jobs = 4;
  const ConformReport parallel = conform_sweep(config);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.divergent_trials, parallel.divergent_trials);
}

}  // namespace
}  // namespace ftss
