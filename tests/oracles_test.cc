// Branch-by-branch pins for the universal history audit.
//
// audit_history is the explorer's check on the simulator itself: a trial's
// history must be exactly what its plan licenses.  Each test below records
// one passing plan's history, tampers a single send record, alive bit,
// faulty bit or plan field, and asserts the exact {oracle, detail} list the
// audit reports, so every diagnostic keeps its wording byte for byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/explorer.h"
#include "check/oracles.h"
#include "check/plan.h"

namespace ftss {
namespace {

// n=4, 8 rounds: p1 crashes at round 5, p2 send-omits and p3 receive-omits
// in rounds 2..3.  Together they put every kind of send fate in the history.
TrialPlan base_plan() {
  TrialPlan plan;
  plan.trial_seed = 7;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 4;
  plan.rounds = 8;
  plan.faults = {
      FaultSpec{.process = 1, .kind = FaultSpec::Kind::kCrash, .onset = 5},
      FaultSpec{.process = 2,
                .kind = FaultSpec::Kind::kSendOmission,
                .onset = 2,
                .until = 3},
      FaultSpec{.process = 3,
                .kind = FaultSpec::Kind::kReceiveOmission,
                .onset = 2,
                .until = 3},
  };
  return plan;
}

class AuditHistory : public ::testing::Test {
 protected:
  void SetUp() override {
    TrialRunOptions options;
    options.history_out = &history_;
    const TrialResult r = run_trial(plan_, options);
    ASSERT_TRUE(r.evaluation.ok()) << r.evaluation.describe();
    ASSERT_EQ(history_.length(), plan_.rounds);
  }

  // The record of the sender -> dest send attempted in `round`.
  SendRecord& send(Round round, ProcessId sender, ProcessId dest) {
    for (SendRecord& s : history_.rounds.at(round - 1).sends) {
      if (s.sender == sender && s.dest == dest) return s;
    }
    ADD_FAILURE() << "no p" << sender << "->p" << dest << " send in round "
                  << round;
    static SendRecord missing;
    return missing;
  }

  // A send the history records as plainly delivered, reset to no fate.
  SendRecord& undelivered(Round round, ProcessId sender, ProcessId dest) {
    SendRecord& s = send(round, sender, dest);
    EXPECT_EQ(s.fate, Fate::kDelivered);
    s.fate = Fate::kUnresolved;
    return s;
  }

  std::vector<std::pair<std::string, std::string>> audit() const {
    std::vector<Violation> out;
    audit_history(history_, plan_, out);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const Violation& v : out) pairs.emplace_back(v.oracle, v.detail);
    return pairs;
  }

  using Expected = std::vector<std::pair<std::string, std::string>>;

  TrialPlan plan_ = base_plan();
  History history_;
};

TEST_F(AuditHistory, RecordedHistoryPasses) { EXPECT_EQ(audit(), Expected{}); }

TEST_F(AuditHistory, LengthMismatch) {
  plan_.rounds = 9;
  EXPECT_EQ(audit(), (Expected{{"audit-length",
                                "history has 8 rounds, plan says 9"}}));
}

TEST_F(AuditHistory, AliveAfterPlannedCrash) {
  history_.rounds.at(4).alive.at(1) = true;
  EXPECT_EQ(audit(),
            (Expected{{"audit-crash",
                       "p1 alive at round 5 contradicts crash plan"}}));
}

TEST_F(AuditHistory, DeadWithoutPlannedCrash) {
  history_.rounds.at(2).alive.at(0) = false;
  EXPECT_EQ(audit(),
            (Expected{{"audit-crash",
                       "p0 dead at round 3 contradicts crash plan"}}));
}

TEST_F(AuditHistory, DelayBeyondMaxExtraDelay) {
  send(1, 0, 1).delivery_round = 2;
  EXPECT_EQ(audit(),
            (Expected{{"audit-delay",
                       "p0->p1 sent round 1 delivered round 2, "
                       "max_extra_delay 0"}}));
}

TEST_F(AuditHistory, SendAfterCrash) {
  send(6, 0, 2).sender = 1;
  EXPECT_EQ(audit(), (Expected{{"audit-crash",
                                "p1 sent at round 6 despite crashing at 5"}}));
}

TEST_F(AuditHistory, MessageEatenByNonCrash) {
  undelivered(1, 0, 2).fate = Fate::kDestCrashed;
  EXPECT_EQ(audit(), (Expected{{"audit-crash",
                                "message eaten by non-crash: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, DeliveredToCrashedDest) {
  SendRecord& s = send(5, 0, 1);
  ASSERT_EQ(s.fate, Fate::kDestCrashed);
  s.fate = Fate::kDelivered;
  EXPECT_EQ(audit(), (Expected{{"audit-crash",
                                "delivered to crashed dest: "
                                "p0->p1 sent 5 delivery 5"}}));
}

TEST_F(AuditHistory, UnlicensedSendDrop) {
  undelivered(1, 0, 2).fate = Fate::kDroppedBySender;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "unlicensed send drop: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, UnlicensedReceiveDrop) {
  undelivered(1, 0, 2).fate = Fate::kDroppedByReceiver;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "unlicensed receive drop: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, InFlightFlushInsideTheRun) {
  undelivered(1, 0, 2).fate = Fate::kLostInFlight;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "in-flight flush inside the run: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, FrameCorruptionInMemory) {
  undelivered(1, 0, 2).fate = Fate::kFrameCorrupted;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "frame corruption in an in-memory history: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, MustDropSendDelivered) {
  SendRecord& s = send(2, 2, 0);
  ASSERT_EQ(s.fate, Fate::kDroppedBySender);
  s.fate = Fate::kDelivered;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "must-drop send delivered: "
                                "p2->p0 sent 2 delivery 2"}}));
}

TEST_F(AuditHistory, MustDropReceiveDelivered) {
  SendRecord& s = send(2, 0, 3);
  ASSERT_EQ(s.fate, Fate::kDroppedByReceiver);
  s.fate = Fate::kDelivered;
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "must-drop receive delivered: "
                                "p0->p3 sent 2 delivery 2"}}));
}

TEST_F(AuditHistory, UndeliveredWithNoCause) {
  undelivered(1, 0, 2);
  EXPECT_EQ(audit(), (Expected{{"audit-omission",
                                "undelivered with no cause: "
                                "p0->p2 sent 1 delivery 1"}}));
}

TEST_F(AuditHistory, FaultWithoutPlanEntry) {
  history_.rounds.back().faulty_by_now.at(0) = true;
  EXPECT_EQ(audit(),
            (Expected{{"audit-faulty",
                       "p0 manifested a fault but has no plan entry"}}));
}

}  // namespace
}  // namespace ftss
