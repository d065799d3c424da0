// Socket-transport conformance tests (ctest label: transport).
//
// The transport leg runs every process on its own OS thread behind a
// loopback socketpair, exchanging binary frames (src/net/transport.h), and
// is held to the same standard as the event-simulator lock-step leg: the
// recorded history must match the SyncSimulator's byte for byte.  Layers:
//   1. agreement on the hand-built plan family conform_test.cc uses
//      (clean / faulty / jittery / compiled), plus determinism across runs
//      despite real threads — the hub's fixed read order is the only
//      ordering authority — and the session's shape, one frame each way
//      per live process per round;
//   2. a crash/GST-style grid mirroring golden_fingerprint_test.cc, each
//      cell asserting sync and transport fingerprints are identical;
//   3. a >=240-trial seeded sweep over adversary-sampled plans with the
//      aggregate fingerprint pinned;
//   4. mutation tests: the hub's corruption hooks (drop, delay, payload
//      mutation, bit flip, truncation, duplication) must each surface as a
//      typed rejection and/or a history divergence the differ catches —
//      a transport oracle that cannot fail verifies nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/adversary.h"
#include "conform/conform.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "plan_family.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::clean_plan;
using testing::compiled_plan;
using testing::faulty_plan;
using testing::jittery_plan;

std::string first_problem(const TransportResult& r) {
  if (!r.notes.empty()) return describe(r.notes.front());
  const auto ds = diff_histories(r.sync_history, r.transport_history);
  return ds.empty() ? std::string("(clean)") : describe(ds.front());
}

void expect_lock_step(const TrialPlan& plan) {
  const TransportResult r = run_transport_trial(plan);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  EXPECT_TRUE(r.notes.empty()) << first_problem(r);
  EXPECT_TRUE(r.rejected_frames.empty());
  EXPECT_TRUE(diff_histories(r.sync_history, r.transport_history).empty())
      << first_problem(r);
  EXPECT_EQ(history_fingerprint(r.sync_history),
            history_fingerprint(r.transport_history));
  EXPECT_GT(r.frames_sent, 0);
  EXPECT_GT(r.bytes_sent, 0);
}

// --- Layer 1: agreement on the standard plan family ---------------------

TEST(TransportConform, AgreesOnCleanPlan) { expect_lock_step(clean_plan()); }

TEST(TransportConform, AgreesUnderCrashOmissionAndCorruption) {
  expect_lock_step(faulty_plan());
}

TEST(TransportConform, AgreesUnderJitterAndProbabilisticDrops) {
  expect_lock_step(jittery_plan());
}

TEST(TransportConform, AgreesOnCompiledProtocol) {
  expect_lock_step(compiled_plan());
}

TEST(TransportConform, OracleWrapperPassesAndIsApplicable) {
  for (const TrialPlan& plan :
       {clean_plan(), faulty_plan(), jittery_plan(), compiled_plan()}) {
    const OracleResult r = check_transport(plan);
    ASSERT_TRUE(r.applicable) << r.skip_reason;
    EXPECT_TRUE(r.ok()) << r.describe();
    EXPECT_EQ(r.oracle, "transport");
  }
}

// Threads are real; determinism is not free.  The hub's id-ordered reads
// must make the recorded history independent of the kernel's scheduling.
TEST(TransportConform, IsDeterministicAcrossRuns) {
  const TransportResult a = run_transport_trial(jittery_plan());
  const TransportResult b = run_transport_trial(jittery_plan());
  ASSERT_TRUE(a.supported && b.supported);
  EXPECT_EQ(history_fingerprint(a.transport_history),
            history_fingerprint(b.transport_history));
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

TEST(TransportConform, RejectsUnrunnablePlans) {
  TrialPlan plan = compiled_plan();
  plan.protocol = "no-such-protocol";
  const TransportResult r = run_transport_trial(plan);
  EXPECT_FALSE(r.supported);
  EXPECT_FALSE(r.unsupported_reason.empty());
  EXPECT_FALSE(check_transport(plan).applicable);
}

// One round is one exchange: a live process gets one kRound, carrying the
// previous round's deliveries, and answers with one kReport.  With kInit
// before the rounds and the closing exchange after them, a crash-free plan
// costs n·(2·rounds + 3) frames.  A process that crashes at round c gets
// kInit and c exchanges, the last of which closes it: 2c + 1.
TEST(TransportConform, OneFrameEachWayPerLiveProcessPerRound) {
  const TrialPlan plan = clean_plan();
  ASSERT_TRUE(plan.faults.empty());
  const std::int64_t per_survivor = 2 * plan.rounds + 3;
  const TransportResult clean = run_transport_trial(plan);
  ASSERT_TRUE(clean.supported) << clean.unsupported_reason;
  EXPECT_EQ(clean.frames_sent, plan.n * per_survivor);

  for (const Round c : {Round{1}, Round{5}, Round{plan.rounds}}) {
    TrialPlan crash = plan;
    crash.faults.push_back(
        FaultSpec{.process = 1, .kind = FaultSpec::Kind::kCrash, .onset = c});
    const TransportResult r = run_transport_trial(crash);
    ASSERT_TRUE(r.supported) << r.unsupported_reason;
    EXPECT_TRUE(r.notes.empty()) << first_problem(r);
    EXPECT_EQ(r.frames_sent, (plan.n - 1) * per_survivor + 2 * c + 1)
        << "crash at round " << c;
  }
}

// --- Layer 2: crash/GST grid mirroring golden_fingerprint_test.cc -------

TEST(TransportConform, CrashAndJitterGridLockSteps) {
  for (const std::uint64_t seed : {7u, 20u}) {
    for (const int n : {4, 6}) {
      TrialPlan plan;
      plan.trial_seed = seed;
      plan.mode = TrialMode::kRoundAgreementSync;
      plan.n = n;
      plan.rounds = 30;
      plan.faults.push_back(
          FaultSpec{.process = 1, .kind = FaultSpec::Kind::kCrash, .onset = 9});
      plan.corruptions.push_back(CorruptionSpec{
          .process = 0, .kind = CorruptionSpec::Kind::kClock,
          .magnitude = 4123});
      expect_lock_step(plan);
    }
  }
  for (const int delay : {2, 3}) {
    TrialPlan plan;
    plan.trial_seed = 11 + delay;
    plan.mode = TrialMode::kRoundAgreementJitter;
    plan.n = 4 + delay % 2;
    plan.rounds = 40;
    plan.max_extra_delay = delay;
    plan.faults.push_back(FaultSpec{.process = 2,
                                    .kind = FaultSpec::Kind::kReceiveOmission,
                                    .onset = 5,
                                    .until = 12,
                                    .permille = 500});
    plan.corruptions.push_back(
        CorruptionSpec{.process = 1,
                       .kind = CorruptionSpec::Kind::kGarbage,
                       .magnitude = 64,
                       .value_seed = plan.trial_seed * 3 + 1});
    expect_lock_step(plan);
  }
  for (const int f : {1, 2}) {
    TrialPlan plan;
    plan.trial_seed = 5 + f;
    plan.mode = TrialMode::kCompiled;
    plan.protocol = "floodset-consensus";
    plan.n = 4 + f;
    plan.f_budget = f;
    plan.rounds = 24;
    plan.faults.push_back(
        FaultSpec{.process = 0, .kind = FaultSpec::Kind::kCrash, .onset = 7});
    if (f >= 2) {
      plan.faults.push_back(FaultSpec{.process = 1,
                                      .kind = FaultSpec::Kind::kSendOmission,
                                      .onset = 3,
                                      .until = 10,
                                      .peer = 2});
    }
    expect_lock_step(plan);
  }
}

// --- Layer 3: the seeded sweep ------------------------------------------

TEST(TransportSweep, SeededSweepIsCleanAndPinned) {
  const int trials = 240 * testing::trial_scale();
  AdversaryConfig adversary;  // same defaults the conform sweep uses
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  int ran = 0;
  int skipped = 0;
  for (int i = 0; i < trials; ++i) {
    const TrialPlan plan =
        sample_trial(adversary, WeakenedKind::kNone, trial_seed_for(1993, i));
    const TransportResult r = run_transport_trial(plan);
    if (!r.supported) {
      ++skipped;
      fp = (fp ^ 1) * 0x100000001b3ULL;
      continue;
    }
    ++ran;
    ASSERT_TRUE(r.notes.empty())
        << "trial " << i << ": " << first_problem(r);
    ASSERT_TRUE(diff_histories(r.sync_history, r.transport_history).empty())
        << "trial " << i << ": " << first_problem(r);
    fp = (fp ^ history_fingerprint(r.transport_history)) * 0x100000001b3ULL;
  }
  EXPECT_GE(ran, trials * 9 / 10) << skipped << " of " << trials << " skipped";
  if (testing::trial_scale() == 1) {
    EXPECT_EQ(fp, 0x57b0f42d20c4cfbaULL)
        << "sweep fingerprint 0x" << std::hex << fp;
  }
}

// --- Layer 4: mutation tests — the differ must catch a lying network ----

// A plan where every round carries traffic, so attempt index 0 exists.
TrialPlan target_plan() { return clean_plan(); }

TEST(TransportMutation, DroppedDeliveryDiverges) {
  TransportOptions broken;
  broken.drop_index = 5;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const auto ds = diff_histories(r.sync_history, r.transport_history);
  EXPECT_FALSE(ds.empty()) << "a vanished delivery must diverge";
  EXPECT_NE(history_fingerprint(r.sync_history),
            history_fingerprint(r.transport_history));
}

TEST(TransportMutation, DelayedDeliveryDiverges) {
  TransportOptions broken;
  broken.delay_index = 5;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  // Shipping a round late reorders delivery against the audited schedule:
  // either the histories differ or the hub flags the schedule violation.
  const bool caught =
      !diff_histories(r.sync_history, r.transport_history).empty() ||
      !r.notes.empty();
  EXPECT_TRUE(caught) << "a delayed delivery must be detected";
}

TEST(TransportMutation, MutatedPayloadDiverges) {
  TransportOptions broken;
  broken.mutate_payload_index = 3;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  // The mutated frame still decodes (it is a valid re-encoding), so this is
  // a *semantic* corruption only the typed differ can see.
  EXPECT_TRUE(r.rejected_frames.empty());
  EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty())
      << "a payload swap must diverge";
}

TEST(TransportCorruption, BitFlipIsRejectedWithHashMismatch) {
  for (const int bit : {3, 77, 150}) {
    TransportOptions broken;
    broken.flip_bit_index = 2;
    broken.flip_bit = bit;
    const TransportResult r = run_transport_trial(target_plan(), broken);
    ASSERT_TRUE(r.supported) << r.unsupported_reason;
    ASSERT_EQ(r.rejected_frames.size(), 1u) << "bit " << bit;
    // Any single flip lands in magic/version/type/flags/length/hash/body —
    // all are covered by a header-field check or the content hash.
    EXPECT_NE(r.rejected_frames.front().error, wire::WireError::kOk);

    // The receiver reports the rejection, the hub records it as a
    // Fate::kFrameCorrupted send — a model-level fault, not a crash.
    int corrupted = 0;
    for (const RoundRecord& rec : r.transport_history.rounds) {
      for (const SendRecord& s : rec.sends) {
        corrupted += s.fate == Fate::kFrameCorrupted;
      }
    }
    EXPECT_EQ(corrupted, 1);

    // The sync leg delivered that message; the transport leg lost it to
    // corruption.  The typed differ must see the disagreement.
    EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty());

    // And the metrics pipeline surfaces it under its own drop cause.
    MetricsRegistry m;
    record_history_metrics(r.transport_history, m);
    EXPECT_EQ(m.snapshot().counters.at("msgs_dropped_frame_corrupt"), 1);
  }
}

TEST(TransportCorruption, TruncationIsRejectedAsTruncated) {
  TransportOptions broken;
  broken.truncate_index = 4;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  ASSERT_EQ(r.rejected_frames.size(), 1u);
  EXPECT_EQ(r.rejected_frames.front().error, wire::WireError::kTruncated);
  EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty());
}

TEST(TransportCorruption, DuplicatedFrameIsFlagged) {
  TransportOptions broken;
  broken.duplicate_index = 1;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  bool flagged = false;
  for (const TransportNote& n : r.notes) {
    if (n.detail.find("duplicate") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged) << "a duplicated delivery must be flagged: "
                       << first_problem(r);
}

TEST(TransportCorruption, CorruptionNeverPanicsTheRun) {
  // Every hook on the same faulty plan: the run must complete with a
  // well-formed history of the full length, never deadlock or crash.
  for (int hook = 0; hook < 5; ++hook) {
    TransportOptions broken;
    switch (hook) {
      case 0: broken.flip_bit_index = 0; broken.flip_bit = 42; break;
      case 1: broken.truncate_index = 0; break;
      case 2: broken.duplicate_index = 0; break;
      case 3: broken.drop_index = 0; break;
      default: broken.delay_index = 0; break;
    }
    const TransportResult r = run_transport_trial(faulty_plan(), broken);
    ASSERT_TRUE(r.supported) << "hook " << hook << ": "
                             << r.unsupported_reason;
    EXPECT_EQ(r.transport_history.length(), faulty_plan().rounds);
  }
}

}  // namespace
}  // namespace ftss
