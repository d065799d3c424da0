// Deterministic intra-round parallelism (SyncConfig::threads).
//
// The round engine's contract is byte-identical observable output at ANY
// lane count: clock/coterie/faulty columns, SendRecords, causality results
// and every downstream fingerprint must not move when a round's phases run
// on 2 or 8 lanes instead of inline.  This suite pins that contract three
// ways: the golden-fingerprint constants, traced tapes included, re-asserted
// at threads ∈ {1,2,8}; full history-dump equality on both the broadcast
// fast path and the fault/jitter slow path; and the explorer's aggregate
// fingerprint under a process-wide lane default, with the sweep on one job
// and on two.  A flight-recorder stress test dumps the ring
// mid-run while lanes record — the TSan CI leg runs this suite to prove the
// engine shares nothing without a happens-before edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/explorer.h"
#include "obs/flight.h"
#include "sim/history_dump.h"
#include "sim/simulator.h"
#include "sync_golden.h"
#include "test_util.h"

namespace ftss {
namespace {

// The lane default is process-wide state; every test restores the serial
// default on exit so suites stay order-independent.
struct SimThreadsGuard {
  explicit SimThreadsGuard(unsigned k) { set_sim_threads_default(k); }
  ~SimThreadsGuard() { set_sim_threads_default(1); }
  SimThreadsGuard(const SimThreadsGuard&) = delete;
  SimThreadsGuard& operator=(const SimThreadsGuard&) = delete;
};

// Traced cases take the lanes too: the fate pass emits every per-message
// event, so the tape must not depend on the lane count either.  Every case
// of golden_fingerprint_test.cc's grid (sync_golden.h), so a lane count
// that perturbs anything observable fails against the one-lane truth.
TEST(ParallelRound, PinnedFingerprintsIdenticalAtAnyLaneCount) {
  const std::vector<testing::GoldenCase> cases = testing::golden_cases();
  for (unsigned threads : {1u, 2u, 8u}) {
    SimThreadsGuard guard(threads);
    for (const testing::GoldenCase& c : cases) {
      const std::uint64_t got = testing::sync_fingerprint(c.plan, c.traced);
      EXPECT_EQ(got, c.want) << c.name << " at threads=" << threads
                             << " fingerprint 0x" << std::hex << got;
    }
  }
}

// Broadcast fast path (no recording, no faults, no jitter): destination-
// partitioned lanes with private scratch inboxes must reproduce the one-lane
// destination-major loop's history exactly.  n is chosen so 8 lanes each own
// several destinations and the id-range split has ragged edges.
TEST(ParallelRound, FastPathHistoryIdenticalAcrossLaneCounts) {
  const int n = 27;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 3,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.corrupt_state(0, testing::clock_state(100000));
    sim.corrupt_state(n - 1, testing::clock_state(-77));
    sim.run_rounds(25);
    return history_to_string(sim.history(), DumpOptions{});
  };
  const std::string serial = run_at(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run_at(threads), serial) << "threads=" << threads;
  }
}

// Figure 1's process, logging what each end_round receives: the
// (sender, payload hash) sequence, one entry per round.
class InboxLoggingProcess : public SyncProcess {
 public:
  using Inbox = std::vector<std::pair<ProcessId, std::uint64_t>>;

  InboxLoggingProcess(ProcessId self, std::vector<Inbox>* log)
      : inner_(self), log_(log) {}

  void begin_round(Outbox& out) override { inner_.begin_round(out); }
  void end_round(const std::vector<Message>& delivered) override {
    Inbox& inbox = log_->emplace_back();
    for (const Message& m : delivered) {
      inbox.emplace_back(m.sender, m.payload.hash());
    }
    inner_.end_round(delivered);
  }
  Value snapshot_state() const override { return inner_.snapshot_state(); }
  void restore_state(const Value& state) override {
    inner_.restore_state(state);
  }
  std::optional<Round> round_counter() const override {
    return inner_.round_counter();
  }

 private:
  RoundAgreementProcess inner_;
  std::vector<Inbox>* log_;
};

// The broadcast fast path (nothing recorded) must hand every process the
// same inbox, in the same order, as the recorded slow path does, round by
// round and at any lane count.
TEST(ParallelRound, FastPathInboxesMatchSlowPath) {
  const int n = 27;
  const int rounds = 20;
  auto run_at = [&](unsigned threads, bool record_sends) {
    std::vector<std::vector<InboxLoggingProcess::Inbox>> logs(n);
    std::vector<std::unique_ptr<SyncProcess>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(std::make_unique<InboxLoggingProcess>(p, &logs[p]));
    }
    SyncSimulator sim(SyncConfig{.seed = 3,
                                 .record_states = false,
                                 .record_sends = record_sends,
                                 .threads = threads},
                      std::move(procs));
    sim.corrupt_state(0, testing::clock_state(100000));
    sim.corrupt_state(n - 1, testing::clock_state(-77));
    sim.run_rounds(rounds);
    return logs;
  };
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto fast = run_at(threads, false);
    const auto slow = run_at(threads, true);
    for (ProcessId p = 0; p < n; ++p) {
      ASSERT_EQ(fast[p].size(), static_cast<std::size_t>(rounds));
      ASSERT_EQ(slow[p].size(), static_cast<std::size_t>(rounds));
      for (int r = 0; r < rounds; ++r) {
        EXPECT_EQ(fast[p][r].size(), static_cast<std::size_t>(n));
        EXPECT_EQ(fast[p][r], slow[p][r])
            << "threads=" << threads << " process " << p << " round "
            << r + 1;
      }
    }
  }
}

// Broadcasts one member payload reused across rounds, as RoundAgreementProcess
// does, and logs the payload node's identity after every begin_round.
class ReusedPayloadProcess : public SyncProcess {
 public:
  ReusedPayloadProcess(ProcessId self, std::vector<const void*>* identities)
      : self_(self), identities_(identities) {}

  void begin_round(Outbox& out) override {
    if (msg_.is_null()) {
      msg_ = Value::map({{"p", Value(static_cast<std::int64_t>(self_))},
                         {"c", Value(c_)}});
    }
    msg_["c"] = Value(c_);
    out.broadcast(msg_);
    identities_->push_back(msg_.node_identity());
  }
  void end_round(const std::vector<Message>& delivered) override {
    Round best = c_;
    for (const Message& m : delivered) {
      best = std::max(best, m.payload.at("c").int_or(best));
    }
    c_ = best + 1;
  }
  Value snapshot_state() const override { return testing::clock_state(c_); }
  void restore_state(const Value& state) override {
    c_ = state.at("c").int_or(0);
  }
  std::optional<Round> round_counter() const override { return c_; }

 private:
  ProcessId self_;
  Round c_ = 0;
  Value msg_;
  std::vector<const void*>* identities_;
};

// The broadcast fast path must release each round's payload references once
// the round's transitions are done, at any lane count, so a reused payload
// is updated in place: its node identity never changes after the first
// round.  The histories must still agree across lane counts.
TEST(ParallelRound, FastPathReusedPayloadStaysUnshared) {
  const int n = 16;
  const int rounds = 12;
  auto run_at = [&](unsigned threads) {
    std::vector<std::vector<const void*>> identities(n);
    std::vector<std::unique_ptr<SyncProcess>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(std::make_unique<ReusedPayloadProcess>(p, &identities[p]));
    }
    SyncSimulator sim(SyncConfig{.seed = 4,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      std::move(procs));
    sim.corrupt_state(3, testing::clock_state(500));
    sim.run_rounds(rounds);
    for (ProcessId p = 0; p < n; ++p) {
      const auto& ids = identities[p];
      EXPECT_EQ(ids.size(), static_cast<std::size_t>(rounds));
      for (std::size_t r = 1; r < ids.size(); ++r) {
        EXPECT_EQ(ids[r], ids[0]) << "threads=" << threads << " process " << p
                                  << ": payload cloned in round " << r;
      }
    }
    return history_to_string(sim.history(), DumpOptions{});
  };
  EXPECT_EQ(run_at(2), run_at(1));
}

// Slow path (full recording, crashes, omission rules, jitter): the
// collect / serial-fate / parallel-fill pipeline must replicate every RNG
// draw, SendRecord slot, in-flight enqueue and inbox order bit-for-bit.
TEST(ParallelRound, SlowPathHistoryIdenticalAcrossLaneCounts) {
  const int n = 24;
  auto run_at = [&](unsigned threads, int max_extra_delay) {
    SyncSimulator sim(SyncConfig{.seed = 11,
                                 .record_states = true,
                                 .record_sends = true,
                                 .max_extra_delay = max_extra_delay,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.corrupt_state(0, testing::clock_state(4123));
    sim.set_fault_plan(1, FaultPlan::crash(9));
    sim.set_fault_plan(2, FaultPlan::lossy(0.5, 0.3));
    sim.set_fault_plan(5, FaultPlan::hide_until(7));
    sim.set_fault_plan(7, FaultPlan::mute());
    sim.run_rounds(30);
    DumpOptions dump;
    dump.show_sends = true;
    dump.show_suspects = true;
    return history_to_string(sim.history(), dump);
  };
  for (const int delay : {0, 2}) {
    const std::string serial = run_at(1, delay);
    for (unsigned threads : {2u, 8u}) {
      EXPECT_EQ(run_at(threads, delay), serial)
          << "threads=" << threads << " max_extra_delay=" << delay;
    }
  }
}

// record_sends toggles a different template instantiation; both must hold
// the identical-at-any-lane-count contract (the recording-off engine skips
// slot assignment entirely).
TEST(ParallelRound, RecordingOffSlowPathIdenticalAcrossLaneCounts) {
  const int n = 24;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 5,
                                 .record_states = false,
                                 .record_sends = false,
                                 .max_extra_delay = 2,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.set_fault_plan(3, FaultPlan::lossy(0.4, 0.2));
    sim.run_rounds(30);
    return history_to_string(sim.history(), DumpOptions{});
  };
  const std::string serial = run_at(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run_at(threads), serial) << "threads=" << threads;
  }
}

// The whole checker pipeline under a process-wide lane default: sampling,
// every oracle, metrics fold.  jobs = 1 keeps the sweep serial so the sims
// are NOT nested in pool tasks and the lanes genuinely engage; the
// aggregate fingerprints must equal the serial pins from
// golden_fingerprint_test.cc.
TEST(ParallelRound, ExplorerAggregateUnchangedByLaneDefault) {
  SimThreadsGuard guard(8);
  ExplorerConfig config;
  config.seed = 42;
  config.trials = 60;
  config.jobs = 1;
  config.shrink = false;
  const ExplorerReport report = explore(config);
  EXPECT_EQ(report.fingerprint, 0xa6e279165f653846ULL)
      << "explorer fingerprint 0x" << std::hex << report.fingerprint;
  EXPECT_EQ(report.metrics.fingerprint(), 0xebdc28eb4e182790ULL)
      << "metrics fingerprint 0x" << std::hex << report.metrics.fingerprint();
}

// The same pins with the sweep itself on two jobs: every trial simulator
// is built inside a pool task and asks for two lanes.  Building one must
// not wait on the sweep's own batch, and its lanes run inline.
TEST(ParallelRound, LaneSimulatorsNestedInSweep) {
  SimThreadsGuard guard(2);
  ExplorerConfig config;
  config.seed = 42;
  config.trials = 60;
  config.jobs = 2;
  config.shrink = false;
  const ExplorerReport report = explore(config);
  EXPECT_EQ(report.fingerprint, 0xa6e279165f653846ULL)
      << "explorer fingerprint 0x" << std::hex << report.fingerprint;
  EXPECT_EQ(report.metrics.fingerprint(), 0xebdc28eb4e182790ULL)
      << "metrics fingerprint 0x" << std::hex << report.metrics.fingerprint();
}

TEST(ParallelRound, ThreadsDefaultSetterClampsZeroToSerial) {
  SimThreadsGuard guard(4);
  EXPECT_EQ(sim_threads_default(), 4u);
  set_sim_threads_default(0);
  EXPECT_EQ(sim_threads_default(), 1u);
}

// kLane spans currently held by every thread's flight ring.
int lane_span_count() {
  int count = 0;
  for (const FlightThreadDump& t : FlightRecorder::global().dump().threads) {
    for (const FlightEvent& e : t.events) {
      if (e.cat == static_cast<std::uint16_t>(FlightCat::kLane)) ++count;
    }
  }
  return count;
}

// Flight-recorder stress: dump the global ring repeatedly while a parallel
// simulator's lanes are recording kLane spans into their per-thread rings.
// Under TSan this is the proof that recording and dumping share only the
// per-ring mutex; the history must still match serial afterwards.
TEST(ParallelRound, FlightDumpWhileLanesRecord) {
  const int n = 32;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 9,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.run_rounds(200);
    return history_to_string(sim.history(), DumpOptions{});
  };

  // The simulation starts only after the first dump, so the dump loop below
  // is already running when the lanes begin recording, however quickly the
  // 200 rounds finish.
  std::atomic<bool> dumped{false};
  std::atomic<bool> done{false};
  std::string parallel_dump;
  std::thread simulate([&] {
    while (!dumped.load(std::memory_order_acquire)) std::this_thread::yield();
    parallel_dump = run_at(8);
    done.store(true, std::memory_order_release);
  });
  int dumps = 0;
  do {
    const FlightDump snap = FlightRecorder::global().dump();
    (void)snap;
    ++dumps;
    dumped.store(true, std::memory_order_release);
  } while (!done.load(std::memory_order_acquire));
  simulate.join();
  EXPECT_GT(dumps, 0);
  EXPECT_EQ(parallel_dump, run_at(1));

  if (FlightRecorder::global().enabled()) {
    // The obs layer self-installs the lane hooks; a threads=8 run must have
    // left kLane spans behind (any ring — lanes land on pool threads).
    EXPECT_GT(lane_span_count(), 0)
        << "lane hooks installed but no spans recorded";
  }
}

// A one-lane simulator runs every phase inline on the calling thread: it
// records no kLane spans, so per-trial flight rings are not flooded with
// per-phase events, on the fast path and the recorded jitter path alike.
TEST(ParallelRound, OneLaneRecordsNoLaneSpans) {
  const int before = lane_span_count();
  SyncSimulator fast(SyncConfig{.seed = 2,
                                .record_states = false,
                                .record_sends = false,
                                .threads = 1},
                     testing::round_agreement_system(16));
  fast.run_rounds(20);
  SyncSimulator slow(SyncConfig{.seed = 2, .max_extra_delay = 2, .threads = 1},
                     testing::round_agreement_system(16));
  slow.set_fault_plan(3, FaultPlan::lossy(0.4, 0.2));
  slow.run_rounds(20);
  EXPECT_EQ(lane_span_count(), before);
}

}  // namespace
}  // namespace ftss
