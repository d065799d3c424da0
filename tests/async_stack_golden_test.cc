// Golden fingerprints of the asynchronous node stacks outside the svc
// shapes: single-shot §3 consensus under both StabilizationOptions, repeated
// consensus under a mid-run corruption wave, and the detector stack alone.
//
// The svc pins (services_test.cc) run only the FTSS options at n=5 behind a
// request plane.  These pin what they never run: the CT91 baseline, whose
// buffered future-round coordinator estimates and round walks only the
// corrupted baseline reaches, n=3, every CorruptionPattern, and the
// detector stack's suspect vectors over time.  Each fingerprint folds what
// an observer of the protocol sees; the in-memory message payloads are free
// to change, the executions are not.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "consensus/harness.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace ftss {
namespace {

std::uint64_t fold_counters(std::uint64_t fp, const EventSimulator& sim) {
  fp = fnv1a_u64(fp, static_cast<std::uint64_t>(sim.messages_sent()));
  return fnv1a_u64(fp, static_cast<std::uint64_t>(sim.messages_delivered()));
}

ConsensusSystemConfig consensus_config(int n, std::uint64_t seed,
                                       StabilizationOptions options) {
  ConsensusSystemConfig config;
  config.n = n;
  config.async.seed = seed;
  config.async.max_delay = 20;
  config.async.max_delay_pre_gst = 60;
  config.async.gst = 300;
  config.stabilization = options;
  for (int p = 0; p < n; ++p) config.inputs.push_back(Value(100 + 7 * p));
  return config;
}

// One single-shot consensus run: every process's decided flag, decision
// hash, decision time and final round, its whole node state (which holds
// the coordinator tasks and the buffered future-round estimates), the
// crash vector and the message counters.
std::uint64_t consensus_fingerprint(int n, StabilizationOptions options,
                                    bool crash, CorruptionPattern pattern) {
  const std::uint64_t seed = 11 + static_cast<std::uint64_t>(n);
  auto sim = build_consensus_system(consensus_config(n, seed, options));
  Rng rng(seed * 31 + static_cast<std::uint64_t>(pattern));
  if (pattern != CorruptionPattern::kNone) {
    for (ProcessId p = 0; p < n; ++p) {
      sim->corrupt_state(p, make_corrupt_state(pattern, p, n, rng));
    }
  }
  if (crash) sim->schedule_crash(0, 40);  // round 0's coordinator
  sim->run_until(6000);

  std::uint64_t fp = kFnv1aBasis;
  for (ProcessId p = 0; p < n; ++p) {
    const CtConsensus& cons = *consensus_view(*sim, p);
    fp = fnv1a_u64(fp, cons.decided() ? 1 : 0);
    fp = fnv1a_u64(fp, cons.decision().hash());
    fp = fnv1a_u64(fp, static_cast<std::uint64_t>(
                           cons.decision_time().value_or(-1)));
    fp = fnv1a_u64(fp, static_cast<std::uint64_t>(cons.round()));
    fp = fnv1a_u64(fp, sim->process(p).snapshot_state().hash());
    fp = fnv1a_u64(fp, sim->crashed(p) ? 1 : 0);
  }
  return fold_counters(fp, *sim);
}

TEST(AsyncStackGolden, ConsensusGrid) {
  struct Cell {
    const char* options;
    int n;
    const char* scenario;
    std::uint64_t want;
  };
  // Options × n × scenario, in loop order below.
  const std::vector<Cell> cells = {
      {"baseline", 3, "clean", 0xc107c9ebcf7e42b1},
      {"baseline", 3, "crash", 0x471e10c2e301fc0b},
      {"baseline", 3, "phase-flags", 0xc6776d6c0d7e5f39},
      {"baseline", 3, "round-counters", 0xcd00dbe6fe72ca84},
      {"baseline", 3, "detector", 0x267ad489ba0d5361},
      {"baseline", 3, "full", 0x85787173cdd950ff},
      {"baseline", 5, "clean", 0x9dee8ec83b90bdf0},
      {"baseline", 5, "crash", 0x5753c06120a22246},
      {"baseline", 5, "phase-flags", 0x1e288b8b5b382ce1},
      {"baseline", 5, "round-counters", 0x334e5ab8800e66f7},
      {"baseline", 5, "detector", 0x3580fe1370d93dba},
      {"baseline", 5, "full", 0x7587e15b66b6b448},
      {"ftss", 3, "clean", 0x829daf77914798fb},
      {"ftss", 3, "crash", 0xe32fbecda28b62f5},
      {"ftss", 3, "phase-flags", 0xf19c8d06da7b86f6},
      {"ftss", 3, "round-counters", 0xa6be5e393bc3f851},
      {"ftss", 3, "detector", 0x550bb81e1811483c},
      {"ftss", 3, "full", 0x7bdad6fee11628f5},
      {"ftss", 5, "clean", 0x387dfd95e43fa92e},
      {"ftss", 5, "crash", 0x680532f81d68f417},
      {"ftss", 5, "phase-flags", 0xbb79015c31413804},
      {"ftss", 5, "round-counters", 0xe0f70afeae861c57},
      {"ftss", 5, "detector", 0xb0d7468bcefe2bc7},
      {"ftss", 5, "full", 0xc368f8e41b9fee00},
  };
  const CorruptionPattern patterns[] = {
      CorruptionPattern::kPhaseFlags, CorruptionPattern::kRoundCounters,
      CorruptionPattern::kDetector, CorruptionPattern::kFull};
  std::size_t i = 0;
  for (const bool ftss : {false, true}) {
    const StabilizationOptions options = ftss
                                             ? StabilizationOptions::ftss()
                                             : StabilizationOptions::baseline();
    for (const int n : {3, 5}) {
      std::vector<std::uint64_t> got;
      got.push_back(consensus_fingerprint(n, options, false,
                                          CorruptionPattern::kNone));
      got.push_back(consensus_fingerprint(n, options, true,
                                          CorruptionPattern::kNone));
      for (const CorruptionPattern pattern : patterns) {
        got.push_back(consensus_fingerprint(n, options, false, pattern));
      }
      for (const std::uint64_t fp : got) {
        ASSERT_LT(i, cells.size());
        const Cell& cell = cells[i++];
        EXPECT_EQ(fp, cell.want)
            << cell.options << "/n" << cell.n << "/" << cell.scenario
            << " fingerprint 0x" << std::hex << fp;
      }
    }
  }
  EXPECT_EQ(i, cells.size());
}

Value int_input(ProcessId p, std::int64_t k) { return Value(1000 * k + p); }

// Repeated consensus under a full corruption wave at t=3000 and a crash
// at t=9000: every process's decision log (instance, value hash, time,
// decided_locally) in log order, plus the message counters.  The wave
// yanks instance counters forward, so processes learn skipped instances
// from old-instance DECIDE messages (decided_locally == false).
std::uint64_t repeated_wave_fingerprint(int n, std::uint64_t seed,
                                        int* learned) {
  ConsensusSystemConfig config;
  config.n = n;
  config.async.seed = seed;
  auto sim = build_repeated_consensus_system(config, int_input);
  sim->schedule_crash(n - 1, 9000);
  sim->run_until(3000);
  Rng rng(seed ^ 0x77617665ULL);
  for (ProcessId p = 0; p < n; ++p) {
    const Value corrupt =
        make_corrupt_state(CorruptionPattern::kFull, p, n, rng);
    Value host = sim->process(p).snapshot_state();
    Value rcons;
    rcons["k"] = Value(rng.uniform(0, 400));
    rcons["inner"] = corrupt.at("cons");
    host["rcons"] = std::move(rcons);
    host["gfd"] = corrupt.at("gfd");
    host["hb"] = corrupt.at("hb");
    sim->process(p).restore_state(host);
  }
  sim->run_until(16000);

  std::uint64_t fp = kFnv1aBasis;
  *learned = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto& log = repeated_view(*sim, p)->decisions();
    fp = fnv1a_u64(fp, log.size());
    for (const AsyncDecision& d : log) {
      fp = fnv1a_u64(fp, static_cast<std::uint64_t>(d.instance));
      fp = fnv1a_u64(fp, d.value.hash());
      fp = fnv1a_u64(fp, static_cast<std::uint64_t>(d.at_time));
      fp = fnv1a_u64(fp, d.decided_locally ? 1 : 0);
      if (!d.decided_locally) ++*learned;
    }
  }
  return fold_counters(fp, *sim);
}

TEST(AsyncStackGolden, RepeatedConsensusWaveDecisionLogs) {
  struct Cell {
    int n;
    std::uint64_t seed;
    std::uint64_t want;
  };
  for (const Cell& cell : {Cell{3, 5, 0x433a358122d2cc3c},
                           Cell{5, 6, 0x1874f3d16475f13b}}) {
    int learned = 0;
    const std::uint64_t got =
        repeated_wave_fingerprint(cell.n, cell.seed, &learned);
    EXPECT_EQ(got, cell.want)
        << "n" << cell.n << " fingerprint 0x" << std::hex << got;
    // The pin covers the old-instance DECIDE path, not only local decides.
    EXPECT_GT(learned, 0) << "n" << cell.n;
  }
}

// The detector stack alone (heartbeat + Figure 4 gossip), from corrupted
// detector state, with a crash and pre-GST chaos: every process's suspect
// vector every 100 ticks.
std::uint64_t detector_fingerprint(int n, std::uint64_t seed, bool weaken) {
  AsyncConfig async;
  async.seed = seed;
  async.max_delay = 15;
  async.max_delay_pre_gst = 150;
  async.gst = 1200;
  std::vector<const GossipStrongFd*> views;
  std::vector<std::unique_ptr<AsyncProcess>> nodes;
  for (ProcessId p = 0; p < n; ++p) {
    auto hb = std::make_unique<HeartbeatFd>(p, n, HeartbeatFdConfig{});
    WeakDetect detect = weaken ? weak_view(hb.get(), p, n) : full_view(hb.get());
    auto gfd = std::make_unique<GossipStrongFd>(p, n, std::move(detect));
    views.push_back(gfd.get());
    std::vector<std::unique_ptr<Module>> mods;
    mods.push_back(std::move(hb));
    mods.push_back(std::move(gfd));
    nodes.push_back(std::make_unique<ModuleHost>(std::move(mods)));
  }
  EventSimulator sim(async, std::move(nodes));
  Rng rng(seed * 3 + 1);
  for (ProcessId p = 0; p < n; ++p) {
    sim.corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kDetector, p, n, rng));
  }
  sim.schedule_crash(1, 700);

  std::uint64_t fp = kFnv1aBasis;
  for (Time t = 100; t <= 6000; t += 100) {
    sim.run_until(t);
    for (ProcessId p = 0; p < n; ++p) {
      for (ProcessId s = 0; s < n; ++s) {
        fp = fnv1a_u64(fp, views[p]->suspects(s) ? 1 : 0);
      }
    }
  }
  return fold_counters(fp, sim);
}

TEST(AsyncStackGolden, DetectorSuspectVectors) {
  const std::uint64_t weak = detector_fingerprint(4, 3, true);
  EXPECT_EQ(weak, 0xb7d2b21a2a12c442ULL)
      << "weak/n4 fingerprint 0x" << std::hex << weak;
  const std::uint64_t full = detector_fingerprint(5, 4, false);
  EXPECT_EQ(full, 0x70ed04defd71ee06ULL)
      << "full/n5 fingerprint 0x" << std::hex << full;
}

}  // namespace
}  // namespace ftss
