// Pinned adversary-explorer schedules.
//
// Each plan below was produced by a real `ftss_check` run: failing plans
// were shrunk by shrink_trial() to a minimal reproducer of a deliberately
// weakened protocol, near-miss plans are passing schedules that consumed an
// unusually large share of the theorem's stabilization bound.  Pinning them
// as deterministic regressions keeps the interesting corners of the
// schedule space exercised on every test run, and keeps the measured
// stabilization margins from silently regressing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "check/explorer.h"
#include "check/plan.h"
#include "conform/metamorphic.h"

namespace ftss {
namespace {

TrialPlan parse_plan(const std::string& json) {
  const auto value = Value::parse(json);
  EXPECT_TRUE(value.has_value()) << json;
  const auto plan = TrialPlan::from_value(*value);
  EXPECT_TRUE(plan.has_value()) << json;
  return *plan;
}

std::vector<std::string> oracle_names(const TrialEvaluation& eval) {
  std::vector<std::string> names;
  for (const auto& v : eval.violations) names.push_back(v.oracle);
  return names;
}

// ftss_check --weakened ra-max --seed 42, trial 0, shrunk to nothing at all:
// the max-without-+1 rule violates Assumption 1's rate clause in every
// round, so even the fault-free, corruption-free execution fails Theorem 3.
constexpr const char* kRaMaxShrunk =
    R"({"corruptions":[],"delay":0,"f":1,"faults":[],"mode":"round-agreement",)"
    R"("n":3,"rounds":12,"seed":4456085495900499605,"weakened":"ra-max"})";

TEST(CheckRegressions, RaMaxShrunkReproFailsWeakenedOnly) {
  TrialPlan plan = parse_plan(kRaMaxShrunk);
  const TrialResult weak = run_trial(plan);
  ASSERT_FALSE(weak.evaluation.ok());
  EXPECT_EQ(oracle_names(weak.evaluation),
            std::vector<std::string>{"theorem3-ftss"});

  // The identical schedule against the real Figure 1 protocol is clean.
  plan.weakened = WeakenedKind::kNone;
  const TrialResult real = run_trial(plan);
  EXPECT_TRUE(real.evaluation.ok()) << real.evaluation.describe();
}

// ftss_check --weakened no-tags --seed 42, trial 0, shrunk to one fault and
// one corruption: a briefly receive-deaf process whose round counter starts
// behind the others replays inputs of the wrong iteration into FloodSet
// (§2.4's "insidious problem"); without the ROUND-tag filter the system
// needs 9 rounds to produce a clean iteration suffix, far past Theorem 4's
// 2*final_round+1 = 5 bound.
constexpr const char* kNoTagsShrunk =
    R"({"corruptions":[{"kind":"clock","magnitude":-2,"p":1}],"delay":0,)"
    R"("f":1,"faults":[{"kind":"receive-omission","onset":1,"p":1,"until":6}],)"
    R"("mode":"compiled","n":3,"protocol":"floodset-consensus","rounds":44,)"
    R"("seed":4456085495900499605,"weakened":"no-tags"})";

TEST(CheckRegressions, NoTagsShrunkReproFailsWeakenedOnly) {
  TrialPlan plan = parse_plan(kNoTagsShrunk);
  const TrialResult weak = run_trial(plan);
  ASSERT_FALSE(weak.evaluation.ok());
  EXPECT_EQ(oracle_names(weak.evaluation),
            std::vector<std::string>{"sigma-plus-stabilization"});

  // With the ROUND-tag defense on, the same schedule stabilizes immediately.
  plan.weakened = WeakenedKind::kNone;
  const TrialResult real = run_trial(plan);
  EXPECT_TRUE(real.evaluation.ok()) << real.evaluation.describe();
  ASSERT_TRUE(real.evaluation.stabilization.has_value());
  EXPECT_LE(*real.evaluation.stabilization, 1);
}

// ftss_check --mode jitter --seed 42, trial 214: the worst passing jitter
// schedule of 2000 — three overlapping send-omission windows plus clock and
// garbage corruption under delay 2 consumed 10 of the 18-round bound.
constexpr const char* kJitterNearMiss =
    R"({"corruptions":[{"kind":"clock","magnitude":7444223462,"p":0},)"
    R"({"kind":"clock","magnitude":31,"p":2},)"
    R"({"kind":"garbage","magnitude":1000000000000,"p":3,)"
    R"("value_seed":-6145203765224200449}],"delay":2,"f":1,)"
    R"("faults":[{"kind":"send-omission","onset":9,"p":4,"permille":154,"until":10},)"
    R"({"kind":"receive-omission","onset":13,"p":3,"until":15},)"
    R"({"kind":"send-omission","onset":7,"p":0,"until":10},)"
    R"({"kind":"send-omission","onset":3,"p":2,"until":10}],)"
    R"("mode":"round-agreement-jitter","n":5,"rounds":70,)"
    R"("seed":3314217324067189985,"weakened":"none"})";

TEST(CheckRegressions, JitterNearMissStaysWithinBound) {
  const TrialResult r = run_trial(parse_plan(kJitterNearMiss));
  EXPECT_TRUE(r.evaluation.ok()) << r.evaluation.describe();
  ASSERT_TRUE(r.evaluation.stabilization.has_value());
  EXPECT_EQ(r.evaluation.bound, 18);  // 10 + 4 * max_extra_delay
  EXPECT_EQ(*r.evaluation.stabilization, 10);  // pinned: regression if worse
}

// ftss_check --mode compiled --seed 42, trial 9: the worst passing compiled
// schedule — leader election (f=2, final_round 3) under a mid-iteration
// full-broadcast send-omission window and five corruptions used 5 of the
// 2*final_round+1 = 7 bound.
constexpr const char* kCompiledNearMiss =
    R"({"corruptions":[{"kind":"clock","magnitude":-2,"p":0},)"
    R"({"kind":"garbage","magnitude":1000000000000,"p":2,)"
    R"("value_seed":-8869963914471153522},)"
    R"({"kind":"garbage","magnitude":1000000000000,"p":3,)"
    R"("value_seed":-2737348744206805971},)"
    R"({"kind":"clock","magnitude":40232042079,"p":4},)"
    R"({"kind":"garbage","magnitude":1000000000000,"p":7,)"
    R"("value_seed":-6934574185951507990}],"delay":0,"f":2,)"
    R"("faults":[{"kind":"send-omission","onset":10,"p":6,"until":16}],)"
    R"("mode":"compiled","n":8,"protocol":"leader-election","rounds":54,)"
    R"("seed":2185608355395893166,"weakened":"none"})";

TEST(CheckRegressions, CompiledNearMissStaysWithinBound) {
  const TrialResult r = run_trial(parse_plan(kCompiledNearMiss));
  EXPECT_TRUE(r.evaluation.ok()) << r.evaluation.describe();
  ASSERT_TRUE(r.evaluation.stabilization.has_value());
  EXPECT_EQ(r.evaluation.bound, 7);
  EXPECT_EQ(*r.evaluation.stabilization, 5);  // pinned: regression if worse
}

// Hand-pinned clamp probe: round counters corrupted to ±(10^15 - 1), the
// edge of clamp_restored_round's range, combined with a receive-deaf window.
// Theorem 3's stab-1 obligation must hold even at the numeric extremes.
constexpr const char* kClampProbe =
    R"({"corruptions":[{"kind":"clock","magnitude":999999999999999,"p":0},)"
    R"({"kind":"clock","magnitude":-999999999999999,"p":1}],"delay":0,"f":1,)"
    R"("faults":[{"kind":"receive-omission","onset":1,"p":2,"until":5}],)"
    R"("mode":"round-agreement","n":3,"rounds":20,"seed":99,)"
    R"("weakened":"none"})";

TEST(CheckRegressions, ClockCorruptionNearClampRecovers) {
  const TrialResult r = run_trial(parse_plan(kClampProbe));
  EXPECT_TRUE(r.evaluation.ok()) << r.evaluation.describe();
  ASSERT_TRUE(r.evaluation.stabilization.has_value());
  EXPECT_LE(*r.evaluation.stabilization, 1);
}

// ftss_conform --seed 42: the first conformance sweep failed its
// permutation oracle on all 157 applicable trials; this is the shrunk
// reproducer (no faults, no corruptions — the divergence is intrinsic).
// Root cause, in the *harness*, not an engine: permute_history renames
// record indices, senders and destinations but passes payloads through
// opaquely, while Figure 1's messages embed their sender id as the "p"
// field ({"type":"ROUND","p":sender,"c":round}).  The expected history
// therefore named the old ids while the renamed run emitted the new ones,
// and every send record mismatched.  check_permutation now rewrites the
// sender field through the permutation; the skip_history_rename hook
// preserves the original broken comparison, so this pin proves both that
// the fix holds and that the oracle still has teeth.
constexpr const char* kPermutationPayloadPin =
    R"({"corruptions":[],"delay":0,"f":1,"faults":[],)"
    R"("mode":"round-agreement-jitter","n":3,"rounds":60,)"
    R"("seed":4456085495900499605,"weakened":"none"})";

TEST(CheckRegressions, PermutationRenamesPayloadSenderIds) {
  const TrialPlan plan = parse_plan(kPermutationPayloadPin);
  const std::vector<ProcessId> rotation = {1, 2, 0};

  const OracleResult fixed = check_permutation(plan, rotation);
  ASSERT_TRUE(fixed.applicable) << fixed.skip_reason;
  EXPECT_TRUE(fixed.ok()) << fixed.describe();

  // The fault-free pin is invariant under renaming outright (permuting it
  // yields the same plan), so the broken comparison trivially agrees there;
  // its teeth show on the same schedule plus one crash the rotation moves.
  TrialPlan crashed = plan;
  crashed.faults.push_back(
      FaultSpec{.process = 0, .kind = FaultSpec::Kind::kCrash, .onset = 3});
  const OracleResult fixed_crashed = check_permutation(crashed, rotation);
  ASSERT_TRUE(fixed_crashed.applicable) << fixed_crashed.skip_reason;
  EXPECT_TRUE(fixed_crashed.ok()) << fixed_crashed.describe();

  PermutationOptions broken;
  broken.skip_history_rename = true;
  const OracleResult unfixed = check_permutation(crashed, rotation, broken);
  ASSERT_TRUE(unfixed.applicable) << unfixed.skip_reason;
  EXPECT_FALSE(unfixed.ok());
}

// The same schedule through the cross-simulator differential leg: both
// engines must agree fate-for-fate, and stay agreeing.  The two history
// fingerprints are equal by construction; their values are not pinned for
// these plans (ConformSweep's aggregate folds only oracle names, verdicts
// and divergence kinds).  CliOutput.ConformLockstep* pins the values for
// the two fixture plans.
TEST(CheckRegressions, PinnedPlanLockstepConforms) {
  for (const char* json : {kRaMaxShrunk, kClampProbe}) {
    TrialPlan plan = parse_plan(json);
    plan.weakened = WeakenedKind::kNone;  // conformance is protocol-agnostic
    const LockstepResult r = run_lockstep_trial(plan);
    ASSERT_TRUE(r.supported) << r.unsupported_reason;
    const std::vector<Divergence> found =
        replay_findings(r.notes, r.sync_history, r.event_history);
    EXPECT_TRUE(found.empty()) << json << ": " << describe(found.front());
    EXPECT_EQ(history_fingerprint(r.sync_history),
              history_fingerprint(r.event_history))
        << json;
  }
}

TEST(CheckRegressions, PinnedPlansRoundTripThroughSerialization) {
  for (const char* json : {kRaMaxShrunk, kNoTagsShrunk, kJitterNearMiss,
                           kCompiledNearMiss, kClampProbe,
                           kPermutationPayloadPin}) {
    const TrialPlan plan = parse_plan(json);
    const Value serialized = plan.to_value();
    const auto reparsed = TrialPlan::from_value(serialized);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->to_value(), serialized) << json;
  }
}

// Replay input is untrusted, so from_value range-checks every integer as
// an int64 before narrowing it to int.  Each of these plans once got
// through: "f": -1 made final_round() 0 and floor_mod divided by it
// (SIGFPE), "f": INT_MAX overflowed final_round()'s f + 1, and values just
// above 2^32 wrapped to a different plan (n=4, 10 rounds, a crash of p1).
// The last three ran into undefined behaviour later: an INT64_MAX crash
// onset overflowed the event leg's onset · period, a garbage magnitude of
// INT64_MIN overflowed its negation, and any negative garbage magnitude
// drew an integer from an inverted range.
TEST(CheckRegressions, FromValueRejectsOutOfRangeIntegers) {
  constexpr const char* kCompiledHead =
      R"({"seed":7,"mode":"compiled","protocol":"floodset-consensus",)"
      R"("weakened":"none","n":4,"delay":0,"rounds":10,"corruptions":[],)"
      R"("faults":[],)";
  constexpr const char* kAgreementHead =
      R"({"seed":7,"mode":"round-agreement","weakened":"none","n":4,"f":1,)"
      R"("delay":0,"rounds":10,)";
  const std::string rejected[] = {
      std::string(kCompiledHead) + R"("f":-1})",
      std::string(kCompiledHead) + R"("f":2147483647})",
      R"({"seed":7,"mode":"round-agreement","weakened":"none",)"
      R"("n":4294967300,"f":1,"delay":0,"rounds":4294967306,)"
      R"("faults":[{"kind":"crash","p":4294967297,"onset":3}],)"
      R"("corruptions":[]})",
      std::string(kAgreementHead) + R"("corruptions":[],)"
      R"("faults":[{"kind":"crash","p":1,"onset":9223372036854775807}]})",
      std::string(kAgreementHead) + R"("faults":[],"corruptions":[)"
      R"({"kind":"garbage","p":1,"magnitude":-9223372036854775808,)"
      R"("value_seed":2}]})",
      std::string(kAgreementHead) + R"("faults":[],"corruptions":[)"
      R"({"kind":"garbage","p":1,"magnitude":-1,"value_seed":2}]})",
  };
  for (const std::string& json : rejected) {
    const auto value = Value::parse(json);
    ASSERT_TRUE(value.has_value()) << json;
    EXPECT_FALSE(TrialPlan::from_value(*value).has_value()) << json;
  }

  // The domains' edges still parse: f from 0 to n's cap of 128, and an
  // omission peer that is kAllPeers or a process in [0, n).
  const TrialPlan edge = parse_plan(
      R"({"seed":7,"mode":"compiled","protocol":"floodset-consensus",)"
      R"("weakened":"none","n":4,"f":128,"delay":64,"rounds":100000,)"
      R"("corruptions":[{"kind":"clock","magnitude":0,"p":3}],)"
      R"("faults":[{"kind":"send-omission","onset":1,"p":3,"peer":3,)"
      R"("permille":1,"until":2}]})");
  EXPECT_EQ(edge.f_budget, 128);
  EXPECT_EQ(edge.faults.at(0).peer, 3);
  // A crash onset up to the rounds cap plus one, a garbage magnitude of 0
  // and a negative clock magnitude (restore clamps it) parse too.
  const TrialPlan late = parse_plan(
      std::string(kAgreementHead) +
      R"("faults":[{"kind":"crash","p":1,"onset":100001}],"corruptions":[)"
      R"({"kind":"garbage","p":2,"magnitude":0,"value_seed":2},)"
      R"({"kind":"clock","p":3,"magnitude":-9223372036854775808}]})");
  EXPECT_EQ(late.faults.at(0).onset, 100001);
  EXPECT_EQ(late.corruptions.at(0).magnitude, 0);
  EXPECT_EQ(late.corruptions.at(1).magnitude,
            std::numeric_limits<std::int64_t>::min());
  for (const char* fault :
       {R"({"kind":"send-omission","onset":1,"p":0,"peer":4})",
        R"({"kind":"send-omission","onset":1,"p":0,"peer":-2})",
        R"({"kind":"send-omission","onset":1,"p":0,"permille":4294968296})",
        R"({"kind":"crash","onset":1,"p":4})",
        R"({"kind":"crash","onset":100002,"p":0})",
        R"({"kind":"receive-omission","onset":100002,"p":0})"}) {
    const std::string json =
        R"({"mode":"round-agreement","n":4,"rounds":10,"faults":[)" +
        std::string(fault) + "]}";
    const auto value = Value::parse(json);
    ASSERT_TRUE(value.has_value()) << json;
    EXPECT_FALSE(TrialPlan::from_value(*value).has_value()) << json;
  }
}

}  // namespace
}  // namespace ftss
