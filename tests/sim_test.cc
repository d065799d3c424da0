// Unit tests for the synchronous round simulator: lock-step delivery, fault
// injection semantics, self-delivery guarantee, history recording,
// determinism.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_util.h"

namespace ftss {
namespace {

using testing::clock_state;
using testing::round_agreement_system;

// A probe process that records everything it sees and broadcasts its id.
class ProbeProcess : public SyncProcess {
 public:
  explicit ProbeProcess(ProcessId self) : self_(self) {}

  void begin_round(Outbox& out) override {
    Value m;
    m["from"] = Value(static_cast<std::int64_t>(self_));
    out.broadcast(std::move(m));
    ++rounds_started_;
  }

  void end_round(const std::vector<Message>& delivered) override {
    last_senders_.clear();
    for (const auto& m : delivered) last_senders_.push_back(m.sender);
    ++rounds_ended_;
  }

  Value snapshot_state() const override {
    Value v;
    v["rounds"] = Value(rounds_ended_);
    return v;
  }
  void restore_state(const Value& state) override {
    rounds_ended_ = state.at("rounds").int_or(0);
  }

  ProcessId self_;
  std::int64_t rounds_started_ = 0;
  std::int64_t rounds_ended_ = 0;
  std::vector<ProcessId> last_senders_;
};

std::vector<std::unique_ptr<SyncProcess>> probes(int n) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (int p = 0; p < n; ++p) procs.push_back(std::make_unique<ProbeProcess>(p));
  return procs;
}

const ProbeProcess& probe(const SyncSimulator& sim, ProcessId p) {
  return dynamic_cast<const ProbeProcess&>(sim.process(p));
}

TEST(SyncSimulator, AllToAllDeliveryInOneRound) {
  SyncSimulator sim(SyncConfig{}, probes(4));
  sim.run_rounds(1);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(probe(sim, p).last_senders_, (std::vector<ProcessId>{0, 1, 2, 3}));
  }
}

TEST(SyncSimulator, DeliveriesSortedBySender) {
  SyncSimulator sim(SyncConfig{}, probes(5));
  sim.run_rounds(3);
  auto senders = probe(sim, 2).last_senders_;
  EXPECT_TRUE(std::is_sorted(senders.begin(), senders.end()));
}

TEST(SyncSimulator, CrashedProcessSendsNothingAndIsNotDelivered) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(1, FaultPlan::crash(2));
  sim.run_rounds(3);
  // Round 1: everyone hears 0,1,2.  Rounds 2..: no messages from 1.
  EXPECT_EQ(probe(sim, 0).last_senders_, (std::vector<ProcessId>{0, 2}));
  // The crashed process stops taking steps entirely.
  EXPECT_EQ(probe(sim, 1).rounds_started_, 1);
  EXPECT_EQ(probe(sim, 1).rounds_ended_, 1);
}

TEST(SyncSimulator, CrashAtRoundOneMeansNoStepsEver) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(0, FaultPlan::crash(1));
  sim.run_rounds(2);
  EXPECT_EQ(probe(sim, 0).rounds_started_, 0);
  EXPECT_EQ(probe(sim, 2).last_senders_, (std::vector<ProcessId>{1, 2}));
}

TEST(SyncSimulator, SendOmissionDropsRemoteButNeverSelf) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(1, FaultPlan::mute());
  sim.run_rounds(2);
  EXPECT_EQ(probe(sim, 0).last_senders_, (std::vector<ProcessId>{0, 2}));
  // Footnote 1: even a faulty process receives its own broadcast.
  EXPECT_EQ(probe(sim, 1).last_senders_, (std::vector<ProcessId>{0, 1, 2}));
}

TEST(SyncSimulator, ReceiveOmissionDropsRemoteButNeverSelf) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(1, FaultPlan::lossy(0.0, 1.0));
  sim.run_rounds(2);
  EXPECT_EQ(probe(sim, 1).last_senders_, (std::vector<ProcessId>{1}));
  // Others are unaffected; 1's sends still go out.
  EXPECT_EQ(probe(sim, 0).last_senders_, (std::vector<ProcessId>{0, 1, 2}));
}

TEST(SyncSimulator, TargetedOmissionRule) {
  FaultPlan plan;
  plan.send_omissions.push_back(OmissionRule{.peer = 2});
  SyncSimulator sim(SyncConfig{}, probes(4));
  sim.set_fault_plan(0, plan);
  sim.run_rounds(1);
  EXPECT_EQ(probe(sim, 2).last_senders_, (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(probe(sim, 1).last_senders_, (std::vector<ProcessId>{0, 1, 2, 3}));
}

TEST(SyncSimulator, WindowedOmissionRule) {
  FaultPlan plan;
  plan.send_omissions.push_back(OmissionRule{.from_round = 2, .to_round = 2});
  SyncSimulator sim(SyncConfig{}, probes(2));
  sim.set_fault_plan(0, plan);
  sim.run_rounds(3);
  const auto& h = sim.history();
  // Round 1 and 3 delivered; round 2 dropped for the remote destination.
  auto delivered_to_1 = [&](Round r) {
    for (const auto& s : h.at(r).sends) {
      if (s.sender == 0 && s.dest == 1) return s.fate == Fate::kDelivered;
    }
    return false;
  };
  EXPECT_TRUE(delivered_to_1(1));
  EXPECT_FALSE(delivered_to_1(2));
  EXPECT_TRUE(delivered_to_1(3));
}

TEST(SyncSimulator, HideUntilRevealsAtGivenRound) {
  SyncSimulator sim(SyncConfig{}, probes(2));
  sim.set_fault_plan(0, FaultPlan::hide_until(3));
  sim.run_rounds(4);
  const auto& h = sim.history();
  auto from0 = [&](Round r) {
    for (const auto& s : h.at(r).sends) {
      if (s.sender == 0 && s.dest == 1) return s.fate == Fate::kDelivered;
    }
    return false;
  };
  EXPECT_FALSE(from0(1));
  EXPECT_FALSE(from0(2));
  EXPECT_TRUE(from0(3));
}

TEST(SyncSimulator, HistoryRecordsStatesAndClocks) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(3));
  sim.corrupt_state(1, clock_state(10));
  sim.run_rounds(2);
  const auto& h = sim.history();
  ASSERT_EQ(h.length(), 2);
  EXPECT_EQ(h.at(1).clock[0], std::optional<Round>(1));
  EXPECT_EQ(h.at(1).clock[1], std::optional<Round>(10));
  EXPECT_EQ(h.at(1).state[1].at("c").as_int(), 10);
}

TEST(SyncSimulator, FaultManifestationIsTracked) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(2, FaultPlan::hide_until(3));
  sim.run_rounds(4);
  const auto& h = sim.history();
  EXPECT_TRUE(h.at(1).faulty_by_now[2]);
  EXPECT_FALSE(h.at(1).faulty_by_now[0]);
  EXPECT_EQ(h.faulty(), (std::vector<bool>{false, false, true}));
}

TEST(SyncSimulator, CorruptionDoesNotMakeFaulty) {
  SyncSimulator sim(SyncConfig{}, round_agreement_system(2));
  sim.corrupt_state(0, clock_state(12345));
  sim.run_rounds(3);
  EXPECT_EQ(sim.history().faulty(), (std::vector<bool>{false, false}));
}

TEST(SyncSimulator, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    SyncSimulator sim(SyncConfig{.seed = seed}, probes(4));
    sim.set_fault_plan(1, FaultPlan::lossy(0.4, 0.2));
    sim.run_rounds(20);
    std::vector<bool> delivered;
    for (const auto& rr : sim.history().rounds) {
      for (const auto& s : rr.sends) {
        delivered.push_back(s.fate == Fate::kDelivered);
      }
    }
    return delivered;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SyncSimulator, ProbabilisticOmissionDropsSomeNotAll) {
  SyncSimulator sim(SyncConfig{.seed = 9}, probes(2));
  sim.set_fault_plan(0, FaultPlan::lossy(0.5, 0.0));
  sim.run_rounds(100);
  int delivered = 0;
  int total = 0;
  for (const auto& rr : sim.history().rounds) {
    for (const auto& s : rr.sends) {
      if (s.sender == 0 && s.dest == 1) {
        ++total;
        delivered += s.fate == Fate::kDelivered ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(total, 100);
  EXPECT_GT(delivered, 20);
  EXPECT_LT(delivered, 80);
}

TEST(SyncSimulator, IncrementalRunsContinueActualRounds) {
  SyncSimulator sim(SyncConfig{}, probes(2));
  sim.run_rounds(2);
  sim.run_rounds(3);
  EXPECT_EQ(sim.current_round(), 5);
  EXPECT_EQ(sim.history().length(), 5);
  EXPECT_EQ(sim.history().at(5).round, 5);
}

TEST(SyncSimulator, ConfigurationAfterStartIsRejected) {
  SyncSimulator sim(SyncConfig{}, probes(2));
  sim.run_rounds(1);
  EXPECT_THROW(sim.set_fault_plan(0, FaultPlan::crash(5)), std::logic_error);
  EXPECT_THROW(sim.corrupt_state(0, Value(1)), std::logic_error);
}

TEST(SyncSimulator, PlannedFaultyReflectsPlans) {
  SyncSimulator sim(SyncConfig{}, probes(3));
  sim.set_fault_plan(2, FaultPlan::crash(100));
  EXPECT_EQ(sim.planned_faulty().to_bools(),
            (std::vector<bool>{false, false, true}));
}

TEST(SyncSimulator, SendToBadDestinationThrows) {
  class BadSender : public SyncProcess {
   public:
    void begin_round(Outbox& out) override { out.send(99, Value(1)); }
    void end_round(const std::vector<Message>&) override {}
    Value snapshot_state() const override { return Value(); }
    void restore_state(const Value&) override {}
  };
  std::vector<std::unique_ptr<SyncProcess>> procs;
  procs.push_back(std::make_unique<BadSender>());
  SyncSimulator sim(SyncConfig{}, std::move(procs));
  EXPECT_THROW(sim.run_rounds(1), std::out_of_range);
}

TEST(SyncSimulator, RecordStatesOffLeavesClocksAvailable) {
  SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                    round_agreement_system(2));
  sim.run_rounds(2);
  EXPECT_TRUE(sim.history().at(1).state.empty());
  EXPECT_EQ(sim.history().at(2).clock[0], std::optional<Round>(2));
}

TEST(SyncSimulator, CrashedAccessorAgreesWithTheRoundLoop) {
  // Regression: crashed() reported `round_ + 1 >= crash_at` — one round
  // earlier than the loop that actually stops the process (`r >= crash_at`).
  // With crash_at = 3 the process steps in rounds 1-2 and never again, so
  // after two executed rounds it must still count as alive.
  SyncSimulator sim(SyncConfig{}, probes(2));
  sim.set_fault_plan(1, FaultPlan::crash(3));
  sim.run_rounds(2);
  EXPECT_FALSE(sim.crashed(1));
  EXPECT_TRUE(sim.history().at(2).alive[1]);
  EXPECT_EQ(probe(sim, 1).rounds_started_, 2);
  sim.run_rounds(1);
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_FALSE(sim.history().at(3).alive[1]);
  EXPECT_EQ(probe(sim, 1).rounds_started_, 2);  // no step in round 3
  EXPECT_FALSE(sim.crashed(0));
}

TEST(SyncSimulator, InFlightMessagesAreFlushedIntoTheFinalRecord) {
  SyncSimulator sim(SyncConfig{.seed = 11, .max_extra_delay = 4},
                    round_agreement_system(3));
  sim.run_rounds(8);
  const auto& h = sim.history();
  std::int64_t resolved = 0, in_flight = 0;
  for (const auto& rec : h.rounds) {
    for (const auto& s : rec.sends) {
      if (s.fate == Fate::kLostInFlight) {
        EXPECT_EQ(rec.round, 8);  // flush lands only in the final record
        EXPECT_GT(s.delivery_round, 8);  // scheduled past the end of the run
        EXPECT_LE(s.delivery_round, s.sent_round + 4);
        ++in_flight;
      } else {
        ++resolved;
      }
    }
  }
  // Every send resolves exactly once: 3 broadcasts x 3 dests x 8 rounds.
  EXPECT_EQ(resolved + in_flight, 8 * 9);
  EXPECT_GT(in_flight, 0);  // seed 11 leaves messages in flight at round 8
}

TEST(SyncSimulator, InFlightFlushIsRetractedWhenTheRunIsExtended) {
  // The flush must not consume the delayed messages: running 6+6 rounds has
  // to produce the exact history of running 12 straight, including the
  // final record's residue.
  SyncSimulator split(SyncConfig{.seed = 11, .max_extra_delay = 4},
                      round_agreement_system(3));
  split.run_rounds(6);
  split.run_rounds(6);
  SyncSimulator straight(SyncConfig{.seed = 11, .max_extra_delay = 4},
                         round_agreement_system(3));
  straight.run_rounds(12);
  const auto& a = split.history();
  const auto& b = straight.history();
  ASSERT_EQ(a.length(), b.length());
  for (Round r = 1; r <= a.length(); ++r) {
    ASSERT_EQ(a.at(r).sends.size(), b.at(r).sends.size()) << "round " << r;
    for (std::size_t i = 0; i < a.at(r).sends.size(); ++i) {
      const auto& x = a.at(r).sends[i];
      const auto& y = b.at(r).sends[i];
      EXPECT_EQ(x.sender, y.sender);
      EXPECT_EQ(x.dest, y.dest);
      EXPECT_EQ(x.payload, y.payload);
      EXPECT_EQ(x.fate, y.fate);
      EXPECT_EQ(x.sent_round, y.sent_round);
      EXPECT_EQ(x.delivery_round, y.delivery_round);
    }
    EXPECT_EQ(a.at(r).clock, b.at(r).clock) << "round " << r;
  }
}

TEST(SyncSimulator, RecordSendsOffPreservesTheRoundColumns) {
  // record_sends=false is a pure observability knob: the run itself — RNG
  // consumption, fault manifestation, delayed deliveries, coteries, clocks —
  // must be bit-identical to the recorded run; only the SendRecord rows
  // disappear.  Faults plus jitter cover every send-resolution path.
  const auto build = [](bool record_sends) {
    SyncSimulator sim(SyncConfig{.seed = 17,
                                 .record_states = false,
                                 .record_sends = record_sends,
                                 .max_extra_delay = 3},
                      round_agreement_system(5));
    sim.set_fault_plan(1, FaultPlan::lossy(0.4, 0.4));
    sim.set_fault_plan(3, FaultPlan::crash(6));
    sim.corrupt_state(0, clock_state(5000));
    return sim;
  };
  auto with = build(true);
  auto without = build(false);
  with.run_rounds(10);
  without.run_rounds(10);
  const auto& a = with.history();
  const auto& b = without.history();
  ASSERT_EQ(a.length(), b.length());
  for (Round r = 1; r <= a.length(); ++r) {
    EXPECT_EQ(a.at(r).clock, b.at(r).clock) << "round " << r;
    EXPECT_EQ(a.at(r).coterie, b.at(r).coterie) << "round " << r;
    EXPECT_EQ(a.at(r).faulty_by_now, b.at(r).faulty_by_now) << "round " << r;
    EXPECT_EQ(a.at(r).alive, b.at(r).alive) << "round " << r;
    EXPECT_FALSE(a.at(r).sends.empty()) << "round " << r;
    EXPECT_TRUE(b.at(r).sends.empty()) << "round " << r;
  }
}

TEST(SyncSimulator, RecordStatesRequiresRecordSends) {
  // State snapshots embed sent payloads, so the combination is rejected up
  // front instead of producing a silently truncated history.
  SyncSimulator sim(SyncConfig{.record_states = true, .record_sends = false},
                    round_agreement_system(3));
  EXPECT_THROW(sim.run_rounds(1), std::logic_error);
}

}  // namespace
}  // namespace ftss
