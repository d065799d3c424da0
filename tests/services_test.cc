// Service-level battery for the replicated-KV serving stack (src/svc/):
// golden report fingerprints under crash + corruption plans (at worker
// counts 1 and 8, pinning the parallel_sweep determinism contract, at the
// svc-batched shape and at the client scheduling edges), applied-store
// convergence, bounded-corrupted-prefix, pipeline backpressure, the pump's
// wall-clock phase timers, read leases, retransmit/dedup liveness (every
// wave seed drains), the store's dedup rule against a reference model, and
// the batching-transparency oracle with its deliberate-breakage mutation.
//
// The pinned hex constants are load-bearing: they freeze the entire
// client-visible behavior of the serving stack (request completions,
// latency histograms, decided-log shape, store contents) as a pure
// function of the config.  An intentional behavior change must re-pin
// them; anything else touching them is a regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "conform/batching.h"
#include "consensus/harness.h"
#include "svc/service.h"
#include "test_util.h"
#include "util/fnv.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ftss {
namespace {

using svc::KvService;
using svc::KvStore;
using svc::SvcConfig;
using svc::SvcReport;

// The four golden cells: {batch=1, batch=8} x {no faults, systemic wave +
// crash}.  Small enough to run in well under a second each.
SvcConfig golden_config(int cell) {
  SvcConfig config;
  config.n = 5;
  config.seed = 7;
  config.batch = (cell & 1) ? 8 : 1;
  config.clients = 300;
  config.read_permille = 150;
  config.horizon = 12000;
  if (cell & 2) {
    config.plan = svc::corruption_wave(config.n, 3000, /*seed=*/19);
    config.plan.crashes.push_back({1, 5000});
  }
  return config;
}

SvcReport run_service(SvcConfig config) {
  KvService service(std::move(config));
  service.run();
  return service.report();
}

std::vector<std::uint64_t> golden_grid(unsigned jobs) {
  return parallel_sweep<std::uint64_t>(
      4, [](std::size_t cell) {
        return run_service(golden_config(static_cast<int>(cell)))
            .fingerprint();
      },
      jobs);
}

// --- golden pins -------------------------------------------------------------

constexpr std::uint64_t kGoldenCells[4] = {
    0xf67bbadc1eeb9df6,  // batch=1, no faults
    0xe272ee01fedd5df1,  // batch=8, no faults
    0xe61fc35cbefa239c,  // batch=1, wave + crash
    0x671d88a6718d4800,  // batch=8, wave + crash
};

TEST(SvcGolden, ReportFingerprintsPinnedAndThreadInvariant) {
  const std::vector<std::uint64_t> serial = golden_grid(1);
  const std::vector<std::uint64_t> parallel = golden_grid(8);
  EXPECT_EQ(serial, parallel)
      << "svc report fingerprints must not depend on worker count";
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(serial[cell], kGoldenCells[cell])
        << "cell " << cell << " fingerprint drifted: 0x" << std::hex
        << serial[cell];
  }
}

TEST(SvcGolden, BatchingSweepFingerprintPinnedAndThreadInvariant) {
  BatchingOracleConfig config;
  config.seed = 42;
  config.trials = 4;
  config.batches = {4, 16};
  config.jobs = 1;
  const BatchingOracleReport serial = svc_batching_sweep(config);
  config.jobs = 8;
  const BatchingOracleReport parallel = svc_batching_sweep(config);
  EXPECT_TRUE(serial.ok()) << serial.summary();
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.fingerprint, 0xbd25aafd136824e5ULL)
      << "batching sweep fingerprint drifted: 0x" << std::hex
      << serial.fingerprint;
}

// The svc-faults benchmark cell: batch 1, so every write is its own
// consensus instance, under EXP21a's corruption wave plus a crash.
SvcConfig decision_log_config(std::uint64_t seed) {
  SvcConfig config;
  config.n = 5;
  config.seed = seed;
  config.batch = 1;
  config.clients = 100;
  config.max_ops_per_client = 5;
  config.read_permille = 200;
  config.horizon = 20000;
  config.drain_cap = 30000;
  config.plan = svc::corruption_wave(config.n, 7000, /*seed=*/79);
  config.plan.crashes.push_back({4, 12000});
  return config;
}

// Every replica's decision log (instance, value hash, decision time, local
// or learned) in log order, plus the simulator's message counters.  The
// report fingerprint folds client-visible outcomes; this pins when each
// replica decided what, which a reordering of same-time deliveries moves.
std::uint64_t decision_log_fingerprint(const KvService& service, int n) {
  std::uint64_t fp = kFnv1aBasis;
  for (ProcessId p = 0; p < n; ++p) {
    const std::vector<AsyncDecision>& log =
        repeated_view(service.sim(), p)->decisions();
    fp = fnv1a_u64(fp, log.size());
    for (const AsyncDecision& d : log) {
      fp = fnv1a_u64(fp, static_cast<std::uint64_t>(d.instance));
      fp = fnv1a_u64(fp, d.value.hash());
      fp = fnv1a_u64(fp, static_cast<std::uint64_t>(d.at_time));
      fp = fnv1a_u64(fp, d.decided_locally ? 1 : 0);
    }
  }
  fp = fnv1a_u64(fp, static_cast<std::uint64_t>(service.sim().messages_sent()));
  return fnv1a_u64(
      fp, static_cast<std::uint64_t>(service.sim().messages_delivered()));
}

TEST(SvcGolden, DecisionLogsPinned) {
  const std::uint64_t want[] = {0x39a5abb748cc27d4, 0x51bf6505188e9d33};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SvcConfig config = decision_log_config(seed);
    const int n = config.n;
    KvService service(std::move(config));
    service.run();
    const std::uint64_t got = decision_log_fingerprint(service, n);
    EXPECT_EQ(got, want[seed - 1])
        << "seed " << seed << " decision logs drifted: 0x" << std::hex << got;
  }
}

// The svc-batched benchmark shape at a tenth of its clients: batch 256,
// 2000 clients x 10 ops.  The faulty cell adds EXP21a's wave and a crash,
// so skipped holes, a crashed replica, a non-canonical decided instance
// and batches above 8 commands all reach the pinned report.  (No replica
// logs disagree under this wave: consensus agrees even on the corrupted
// era's value.)
SvcConfig batched_config(bool faults) {
  SvcConfig config;
  config.n = 5;
  config.seed = 3;
  config.batch = 256;
  config.clients = 2000;
  config.max_ops_per_client = 10;
  config.read_permille = 200;
  config.horizon = 30000;
  config.drain_cap = 30000;
  if (faults) {
    config.plan = svc::corruption_wave(config.n, 7000, /*seed=*/79);
    config.plan.crashes.push_back({4, 12000});
  }
  return config;
}

TEST(SvcGolden, BatchedReportsPinned) {
  const std::uint64_t want[] = {0x35642743d9fd42fb, 0xcc5db2c87e794f03};
  for (const bool faults : {false, true}) {
    const SvcReport report = run_service(batched_config(faults));
    const auto fill = report.metrics.histograms.find("svc_batch_fill");
    ASSERT_NE(fill, report.metrics.histograms.end());
    EXPECT_GT(fill->second.max, 8) << report.summary();
    if (faults) {
      EXPECT_GT(report.dirty_instances, 0) << report.summary();
      EXPECT_GT(report.instances_skipped, 0) << report.summary();
    }
    EXPECT_EQ(report.fingerprint(), want[faults])
        << (faults ? "wave + crash" : "no faults")
        << " cell drifted: 0x" << std::hex << report.fingerprint();
  }
}

// Client calendar edge cells: (0) think times of 3000-9000 ticks and a
// 12 000-tick arrival spread, so clients fall due more than one lap of the
// calendar's 4096-slot ring ahead; (1) think time 1, so every client is due
// again on the tick after each pump; (2) open loop with bounded ops and a
// drain, the batching oracle's mode, where a client is rescheduled when it
// submits.
SvcConfig calendar_edge_config(int cell) {
  SvcConfig config;
  config.n = 3;
  config.seed = 17;
  config.batch = 8;
  config.clients = 200;
  config.read_permille = 300;
  switch (cell) {
    case 0:
      config.think_min = 3000;
      config.think_max = 9000;
      config.arrival_spread = 12000;
      config.horizon = 40000;
      break;
    case 1:
      config.clients = 60;
      config.think_min = 1;
      config.think_max = 1;
      config.horizon = 6000;
      break;
    default:
      config.closed_loop = false;
      config.max_ops_per_client = 6;
      config.think_min = 40;
      config.think_max = 400;
      config.arrival_spread = 1000;
      config.horizon = 8000;
      config.drain_cap = 40000;
      break;
  }
  return config;
}

TEST(SvcGolden, CalendarEdgeReportsPinned) {
  const std::uint64_t want[] = {0x6ba2719ae50f4388, 0x8345a01ca5c8a8d5,
                                0x5b37568a71c390db};
  for (int cell = 0; cell < 3; ++cell) {
    const SvcReport report = run_service(calendar_edge_config(cell));
    EXPECT_GT(report.requests_completed, 0) << report.summary();
    EXPECT_GT(report.reads_served, 0) << report.summary();
    if (cell == 2) {
      EXPECT_TRUE(report.drained) << report.summary();
    }
    EXPECT_EQ(report.fingerprint(), want[cell])
        << "cell " << cell << " drifted: 0x" << std::hex
        << report.fingerprint() << std::dec << "; " << report.summary();
  }
}

// --- convergence and the bounded corrupted prefix ---------------------------

TEST(SvcConvergence, SurvivorStoresConvergeUnderWaveAndCrash) {
  SvcConfig config;
  config.n = 5;
  config.seed = 21;
  config.batch = 8;
  config.clients = 200;
  config.read_permille = 200;
  config.horizon = 30000;
  config.plan = svc::corruption_wave(config.n, 6000, /*seed=*/77);
  config.plan.crashes.push_back({4, 3000});
  const SvcReport report = run_service(std::move(config));

  EXPECT_TRUE(report.converged_full) << report.summary();
  EXPECT_TRUE(report.converged_clean) << report.summary();
  ASSERT_TRUE(report.clean_from.has_value());
  EXPECT_GT(report.requests_completed, 0);
  EXPECT_GT(report.reads_served, 0);
  // The serving layer keeps deciding commands after the systemic failure.
  EXPECT_GT(report.commands_decided, report.requests_completed / 2);
}

TEST(SvcConvergence, CorruptedPrefixBoundedAcrossSampledPlans) {
  const int plans = 5 * testing::trial_scale();
  const std::vector<SvcReport> reports = parallel_sweep<SvcReport>(
      plans, [](std::size_t i) {
        SvcConfig config;
        config.n = 5;
        config.seed = 100 + i;
        config.batch = 16;
        config.clients = 250;
        config.horizon = 24000;
        config.plan =
            svc::sample_svc_plan(900 + i, config.n, config.horizon);
        return run_service(std::move(config));
      });
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SvcReport& report = reports[i];
    EXPECT_TRUE(report.converged_full)
        << "plan " << i << ": " << report.summary();
    ASSERT_TRUE(report.clean_from.has_value())
        << "plan " << i << ": " << report.summary();
    // The corrupted prefix is bounded: every dirty instance precedes
    // clean_from (trailing-run construction), and the clean suffix
    // dominates the decided log.
    EXPECT_LT(report.dirty_instances,
              std::max<std::int64_t>(report.instances_decided / 4, 8))
        << "plan " << i << ": " << report.summary();
    EXPECT_GT(report.requests_completed, report.requests_submitted / 2)
        << "plan " << i << ": " << report.summary();
  }
}

// --- pipelining and backpressure --------------------------------------------

TEST(SvcPipeline, WindowBoundsLogRunaheadUnderSlowApply) {
  SvcConfig config;
  config.n = 3;
  config.seed = 5;
  config.batch = 4;
  config.pipeline_depth = 8;
  config.clients = 400;
  config.think_min = 20;
  config.think_max = 60;
  config.horizon = 16000;
  config.apply_delay = 600;  // application lags decisions
  KvService service(std::move(config));
  service.run();
  const SvcReport report = service.report();

  const auto lag = report.metrics.gauges.find("svc_cmd_lag_peak");
  ASSERT_NE(lag, report.metrics.gauges.end());
  // Command-carrying instances can lead the applied floor by at most the
  // window (proposals are cut at floor + depth; the floor only grows).
  EXPECT_LE(lag->second, 8 + 4) << report.summary();
  EXPECT_GT(service.plane().proposals_empty_backpressure(), 0)
      << "a slow applier must push back on the proposal window";
  EXPECT_TRUE(report.converged_full) << report.summary();
}

TEST(SvcPipeline, BatchOneDegeneratesToSingleCommandInstances) {
  SvcConfig config;
  config.n = 3;
  config.seed = 11;
  config.batch = 1;
  config.clients = 60;
  config.horizon = 8000;
  const SvcReport report = run_service(std::move(config));

  const auto fill = report.metrics.histograms.find("svc_batch_fill");
  ASSERT_NE(fill, report.metrics.histograms.end());
  EXPECT_LE(fill->second.max, 1)
      << "batch=1 must decide one command per instance";
  EXPECT_GT(report.requests_completed, 0);
}

// --- in-process attribution --------------------------------------------------

TEST(SvcProfile, EveryPumpPhaseIsTimedOncePerPump) {
  SvcConfig config;
  config.n = 3;
  config.seed = 5;
  config.batch = 8;
  config.clients = 100;
  config.horizon = 3000;
  config.pump_interval = 50;
  KvService service(std::move(config));
  service.run();
  const SvcReport report = service.report();
  const std::int64_t pumps = report.ran_until / 50;
  ASSERT_EQ(pumps, 60);
  const Value stable = report.metrics.stable_value().at("histograms");
  const Value timing = report.metrics.timing_value().at("histograms");
  for (const char* name : {"svc_run_until_ns", "svc_scan_ns", "svc_apply_ns",
                           "svc_reclaim_ns", "svc_issue_ns"}) {
    const auto hist = report.metrics.histograms.find(name);
    ASSERT_NE(hist, report.metrics.histograms.end()) << name;
    EXPECT_TRUE(hist->second.wall_clock) << name;
    EXPECT_EQ(hist->second.count, pumps) << name;
    EXPECT_EQ(hist->second.bounds, latency_nanos_bounds()) << name;
    EXPECT_TRUE(timing.contains(name)) << name;
    EXPECT_FALSE(stable.contains(name)) << name;
  }
}

// --- read leases -------------------------------------------------------------

TEST(SvcLease, ServedReadsRespectTheStalenessBound) {
  SvcConfig config;
  config.n = 3;
  config.seed = 13;
  config.batch = 8;
  config.clients = 200;
  config.read_permille = 500;
  config.lease_bound = 1500;
  config.horizon = 16000;
  const Time bound = config.lease_bound;
  const SvcReport report = run_service(std::move(config));

  EXPECT_GT(report.reads_served, 0);
  const auto staleness = report.metrics.histograms.find("svc_read_staleness");
  ASSERT_NE(staleness, report.metrics.histograms.end());
  EXPECT_LE(staleness->second.max, bound)
      << "a served read may never exceed the lease staleness bound";
}

TEST(SvcLease, StaleReplicasRejectInsteadOfServing) {
  SvcConfig config;
  config.n = 3;
  config.seed = 13;
  config.batch = 8;
  config.clients = 200;
  config.read_permille = 500;
  config.lease_bound = 300;
  config.apply_delay = 2000;  // applied state always older than the lease
  config.horizon = 12000;
  const SvcReport report = run_service(std::move(config));

  EXPECT_GT(report.reads_rejected_stale, 0);
  const auto staleness = report.metrics.histograms.find("svc_read_staleness");
  if (staleness != report.metrics.histograms.end() &&
      staleness->second.count > 0) {
    EXPECT_LE(staleness->second.max, 300);
  }
}

// --- retransmission and dedup ------------------------------------------------

TEST(SvcRetransmit, OrphanedBatchesDrainToCompletion) {
  SvcConfig config;
  config.n = 5;
  config.seed = 21;
  config.batch = 8;
  config.clients = 120;
  config.max_ops_per_client = 8;
  config.horizon = 20000;
  config.drain_cap = 60000;
  config.plan = svc::corruption_wave(config.n, 2500, /*seed=*/77);
  KvService service(std::move(config));
  service.run();
  const SvcReport report = service.report();

  EXPECT_TRUE(report.drained) << report.summary();
  EXPECT_EQ(report.requests_outstanding, 0);
  EXPECT_EQ(report.requests_completed, report.requests_submitted)
      << "after the drain every submitted command must be decided and "
         "applied despite the systemic failure";
  EXPECT_TRUE(report.converged_full) << report.summary();
  // The wave orphans in-flight instances; their commands are re-proposed.
  EXPECT_GT(report.commands_retransmitted, 0) << report.summary();
}

// The svc-faults shape: 100 clients x 5 ops at batch 1 under EXP21a's wave
// at t=7000 plus a crash of replica 4 at t=12000, run on to a drain.
SvcConfig wave_drain_config(std::uint64_t wave_seed) {
  SvcConfig config;
  config.n = 5;
  config.seed = 1;
  config.batch = 1;
  config.clients = 100;
  config.max_ops_per_client = 5;
  config.read_permille = 200;
  config.horizon = 20000;
  config.drain_cap = 30000;
  config.plan = svc::corruption_wave(config.n, 7000, wave_seed);
  config.plan.crashes.push_back({4, 12000});
  return config;
}

// Wave seed 27 gets a corrupted-era value decided first for an instance the
// plane had assigned a write.  That instance must not count as carrying the
// write: reclaim() re-proposes it and it completes.
TEST(SvcRetransmit, CorruptedDecisionDoesNotStrandItsBatch) {
  const SvcReport report = run_service(wave_drain_config(27));
  EXPECT_TRUE(report.drained) << report.summary();
  EXPECT_EQ(report.requests_completed, report.requests_submitted)
      << report.summary();
}

TEST(SvcRetransmit, EveryWaveSeedDrainsToCompletion) {
  const int seeds = 32 * testing::trial_scale();
  const std::vector<SvcReport> reports = parallel_sweep<SvcReport>(
      seeds, [](std::size_t i) {
        return run_service(wave_drain_config(1 + i));
      });
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].drained)
        << "wave seed " << 1 + i << ": " << reports[i].summary();
    EXPECT_EQ(reports[i].requests_completed, reports[i].requests_submitted)
        << "wave seed " << 1 + i << ": " << reports[i].summary();
  }
}

// --- batching transparency ---------------------------------------------------

TEST(SvcBatching, TransparentAcrossBatchSizes) {
  for (const int batch : {4, 32}) {
    const BatchingCellResult cell = check_batching(61, batch);
    EXPECT_TRUE(cell.ok()) << cell.describe();
  }
}

TEST(SvcBatching, OracleCatchesDroppedTailCommands) {
  const BatchingCellResult cell =
      check_batching(61, 8, sabotage_drop_last);
  EXPECT_FALSE(cell.ok())
      << "dropping the tail command of every batch must be caught: "
      << cell.describe();
}

// --- decode parity with the original example path ----------------------------

// The original replicated_kv example materialized stores with a hand-rolled
// rule: skip any decided command whose "key" is not a string.  The service
// decoding path (KvStore::apply_decision) must keep that garbage-skip
// behavior bit-for-bit for every command that carries a "val".
TEST(SvcDecode, GarbageCommandSkipParityWithExampleRule) {
  const std::vector<Value> decisions = {
      Value::map({{"key", Value("a")}, {"val", Value(1)}}),
      Value::map({{"key", Value(7)}, {"val", Value(2)}}),    // non-string key
      Value(123),                                            // not a map
      Value::map({{"k", Value("a")}}),                       // no key at all
      Value::array({Value::map({{"key", Value("b")}, {"val", Value(3)}}),
                    Value::map({{"key", Value()}, {"val", Value(4)}}),
                    Value::map({{"key", Value("a")}, {"val", Value(5)}})}),
  };

  // The example's old rule, applied command-wise.
  Value::Map expected;
  const auto old_rule = [&](const Value& cmd) {
    if (!cmd.is_map() || !cmd.at("key").is_string() || !cmd.contains("val")) {
      return;  // garbage: skipped
    }
    expected[cmd.at("key").as_string()] = cmd.at("val");
  };
  for (const Value& d : decisions) {
    if (d.is_array()) {
      for (const Value& cmd : d.as_array()) old_rule(cmd);
    } else {
      old_rule(d);
    }
  }

  KvStore store;
  for (const Value& d : decisions) store.apply_decision(d);
  EXPECT_EQ(store.data(), expected);
  EXPECT_EQ(store.applied_total(), 3);
  EXPECT_EQ(store.garbage_total(), 4);
  EXPECT_EQ(store.get("a"), Value(5));
  EXPECT_EQ(store.get("b"), Value(3));
}

TEST(SvcDecode, DedupSkipsReplayedClientCommands) {
  KvStore store;
  const Value first = Value::map({{"key", Value("x")},
                                  {"val", Value(10)},
                                  {"client", Value(3)},
                                  {"seq", Value(0)}});
  const Value second = Value::map({{"key", Value("x")},
                                   {"val", Value(20)},
                                   {"client", Value(3)},
                                   {"seq", Value(1)}});
  store.apply_decision(first);
  store.apply_decision(second);
  store.apply_decision(first);  // at-least-once replay
  EXPECT_EQ(store.get("x"), Value(20))
      << "a replayed command must not clobber a later write";
  EXPECT_EQ(store.deduped_total(), 1);
}

// The store's decode and dedup rules restated over a std::map floor.
struct ReferenceStore {
  Value::Map data;
  std::map<std::int64_t, std::int64_t> floor;
  std::int64_t applied = 0;
  std::int64_t deduped = 0;
  std::int64_t garbage = 0;

  void apply_one(const Value& cmd) {
    if (!cmd.is_map() || !cmd.at("key").is_string() || !cmd.contains("val")) {
      ++garbage;
      return;
    }
    const std::int64_t client = cmd.at("client").int_or(-1);
    const std::int64_t seq = cmd.at("seq").int_or(-1);
    if (client >= 0) {
      const auto it = floor.find(client);
      if (it != floor.end() && seq <= it->second) {
        ++deduped;
        return;
      }
      floor[client] = seq;
    }
    const std::string& key = cmd.at("key").as_string();
    if (cmd.at("val").is_null()) {
      data.erase(key);
    } else {
      data[key] = cmd.at("val");
    }
    ++applied;
  }

  void apply_decision(const Value& decision) {
    if (decision.is_array()) {
      for (const Value& cmd : decision.as_array()) apply_one(cmd);
    } else if (!decision.is_null()) {
      apply_one(decision);
    }
  }
};

// `clients` bounds the dense client ids; a pool of thousands makes a flat
// dedup table grow several times within one store.  Well-formed keys are
// drawn from "k0" .. "k<keys - 1>".
Value random_command(Rng& rng, std::int64_t clients, std::int64_t keys) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kWideIds[] = {
      std::int64_t{1} << 32, (std::int64_t{1} << 32) + 1,
      (std::int64_t{1} << 40) + 3, kMax, -1, -5, kMin};
  Value cmd;
  switch (rng.uniform(0, 19)) {
    case 0:
      return Value(rng.uniform(0, 9));  // not a map
    case 1:
      cmd["key"] = Value(rng.uniform(0, 3));  // non-string key
      break;
    default:
      cmd["key"] = Value("k" + std::to_string(rng.uniform(0, keys - 1)));
  }
  if (!rng.chance(0.05)) {  // else: no "val" at all
    cmd["val"] = rng.chance(0.1) ? Value() : Value(rng.uniform(0, 999));
  }
  const std::int64_t client_shape = rng.uniform(0, 9);
  if (client_shape < 6) {
    cmd["client"] = Value(rng.uniform(0, clients - 1));  // dense ids
  } else if (client_shape < 8) {
    cmd["client"] = Value(kWideIds[rng.uniform(0, 6)]);
  } else if (client_shape == 8) {
    cmd["client"] = Value("c7");  // non-int: anonymous
  }
  const std::int64_t seq_shape = rng.uniform(0, 19);
  if (seq_shape < 14) {
    cmd["seq"] = Value(rng.uniform(-2, 12));  // replays and out-of-order
  } else if (seq_shape < 16) {
    cmd["seq"] = Value(kMax);
  } else if (seq_shape < 18) {
    cmd["seq"] = Value(kMin);
  } else if (seq_shape == 18) {
    cmd["seq"] = Value("s");  // non-int: -1
  }
  return cmd;
}

// One decided value of 0 .. `max_size` commands.
Value random_decision(Rng& rng, std::int64_t clients, std::int64_t keys,
                      std::int64_t max_size) {
  const std::int64_t size = rng.uniform(0, max_size);
  if (size == 0) return rng.chance(0.5) ? Value() : Value(Value::Array{});
  if (size == 1 && rng.chance(0.5)) return random_command(rng, clients, keys);
  Value::Array batch;
  for (std::int64_t i = 0; i < size; ++i) {
    batch.push_back(random_command(rng, clients, keys));
  }
  return Value(std::move(batch));
}

// Store and reference are compared after every decision, on contents and
// on what the decision did.  Three shapes: batches of up to 8 commands over
// 16 keys for 256 clients; the same for 4096 clients, so the flat floor
// grows several times within one store; and batches of up to 256 commands
// over 4 keys for 16 or 256 clients, so one batch puts, deletes, replays
// and reorders seqs on the same key many times and only its last admitted
// command per key may show in the store.
TEST(SvcDecode, DedupMatchesMapFlooredReferenceModel) {
  struct Shape {
    std::int64_t clients, keys, max_batch;
    int decisions;
  };
  constexpr Shape kShapes[] = {
      {256, 16, 8, 300}, {4096, 16, 8, 1500}, {16, 4, 256, 300},
      {256, 4, 256, 300}};
  for (int trial = 0; trial < 40 * testing::trial_scale(); ++trial) {
    Rng rng(1000 + trial);
    const Shape& shape = kShapes[trial % 4];
    KvStore store;
    ReferenceStore reference;
    std::vector<Value> decided;
    for (int d = 0; d < shape.decisions; ++d) {
      // Mostly fresh decisions; some replay an earlier one whole.
      if (!decided.empty() && rng.chance(0.1)) {
        decided.push_back(decided[rng.uniform(0, decided.size() - 1)]);
      } else {
        decided.push_back(
            random_decision(rng, shape.clients, shape.keys, shape.max_batch));
      }
      const std::int64_t applied = reference.applied;
      const std::int64_t deduped = reference.deduped;
      const std::int64_t garbage = reference.garbage;
      const svc::ApplyStats stats = store.apply_decision(decided.back());
      reference.apply_decision(decided.back());
      ASSERT_EQ(store.data(), reference.data)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(stats.applied, reference.applied - applied)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(stats.deduped, reference.deduped - deduped)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(stats.garbage, reference.garbage - garbage)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(store.applied_total(), reference.applied)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(store.deduped_total(), reference.deduped)
          << "trial " << trial << " decision " << d;
      ASSERT_EQ(store.garbage_total(), reference.garbage)
          << "trial " << trial << " decision " << d;
    }
  }
}

}  // namespace
}  // namespace ftss
