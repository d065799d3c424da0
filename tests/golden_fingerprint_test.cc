// Golden message-plane fingerprints.
//
// The simulator's internal representations (influence bitsets, in-flight
// delivery slots, suspect sets) are free to change, but the *observable*
// execution — history dumps, trace tapes, metrics snapshots, explorer
// fingerprints, event-simulator schedules — must not.  This suite pins
// fingerprints computed on the pre-rewrite message plane for a grid of
// (protocol, n, f, seed, jitter) trials, sync and event simulator, traced
// and untraced.  Any representation change that alters delivery order, RNG
// draw order, suspect-set rendering or causality results shows up here as a
// fingerprint mismatch long before a human would notice a subtly different
// trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "async/event_sim.h"
#include "check/explorer.h"
#include "obs/trace.h"
#include "sim/history_dump.h"
#include "sync_golden.h"
#include "util/fnv.h"

namespace ftss {
namespace {

using testing::golden_cases;
using testing::sync_fingerprint;

TEST(GoldenFingerprint, SyncSimulatorGrid) {
  for (const auto& c : golden_cases()) {
    const std::uint64_t got = sync_fingerprint(c.plan, c.traced);
    EXPECT_EQ(got, c.want) << c.name << " fingerprint 0x" << std::hex << got;
  }
}

// Traced-ness must not perturb the execution itself: the history dump of a
// traced run equals the untraced one (the trace tape is extra output, not a
// different schedule).
TEST(GoldenFingerprint, TracedRunMatchesUntracedHistory) {
  for (const auto& base : golden_cases()) {
    if (base.traced) continue;
    TrialRunOptions untraced;
    untraced.record_states = true;
    History h1;
    untraced.history_out = &h1;
    run_trial(base.plan, untraced);

    TraceTape tape;
    TrialRunOptions traced = untraced;
    History h2;
    traced.history_out = &h2;
    traced.trace = &tape;
    run_trial(base.plan, traced);

    DumpOptions dump;
    dump.show_sends = true;
    dump.show_suspects = true;
    EXPECT_EQ(history_to_string(h1, dump), history_to_string(h2, dump))
        << base.name;
  }
}

// The explorer's aggregate fingerprint covers plan sampling, the parallel
// sweep, every oracle and the metrics fold — one number for "the whole
// checker pipeline still behaves identically".
TEST(GoldenFingerprint, ExplorerAggregate) {
  ExplorerConfig config;
  config.seed = 42;
  config.trials = 60;
  config.jobs = 4;
  config.shrink = false;
  const ExplorerReport report = explore(config);
  EXPECT_EQ(report.fingerprint, 0xa6e279165f653846ULL)
      << "explorer fingerprint 0x" << std::hex << report.fingerprint;
  EXPECT_EQ(report.metrics.fingerprint(), 0xebdc28eb4e182790ULL)
      << "metrics fingerprint 0x" << std::hex << report.metrics.fingerprint();
}

// Event-simulator leg: a deterministic flood-max system under crashes, a
// systemic corruption and pre-GST chaos.  Fingerprints the final states,
// message counters and crash vector.
class FloodMaxProcess : public AsyncProcess {
 public:
  explicit FloodMaxProcess(ProcessId self) : v_(self * 100 + 7) {}

  void on_start(AsyncContext& ctx) override { ctx.broadcast(Value(v_)); }
  void on_tick(AsyncContext& ctx) override { ctx.broadcast(Value(v_)); }
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override {
    (void)ctx;
    (void)from;
    v_ = std::max(v_, payload.int_or(0));
  }
  Value snapshot_state() const override { return Value(v_); }
  void restore_state(const Value& state) override { v_ = state.int_or(0); }

 private:
  std::int64_t v_;
};

TEST(GoldenFingerprint, EventSimulator) {
  AsyncConfig config;
  config.seed = 5;
  config.tick_interval = 7;
  config.max_delay = 15;
  config.max_delay_pre_gst = 120;
  config.gst = 140;
  const int n = 5;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<FloodMaxProcess>(p));
  }
  EventSimulator sim(config, std::move(procs));
  sim.corrupt_state(1, Value(123456789));
  sim.schedule_crash(3, 90);
  sim.run_until(400);

  std::uint64_t fp = kFnv1aBasis;
  for (ProcessId p = 0; p < n; ++p) {
    fp = fnv1a_bytes(fp, sim.process(p).snapshot_state().to_string());
  }
  fp = fnv1a_bytes(fp, std::to_string(sim.messages_sent()));
  fp = fnv1a_bytes(fp, std::to_string(sim.messages_delivered()));
  for (const bool b : sim.crashed_by_now()) fp = fnv1a_bytes(fp, b ? "1" : "0");
  EXPECT_EQ(fp, 0x85600651899bc35cULL) << "event sim fingerprint 0x" << std::hex << fp;
}

// Event-simulator grid across GST placements and crash schedules: GST before
// / after / interleaved with crashes, chaos-heavy pre-GST delays, crashes
// landing mid-chaos and post-stabilization.  Pins the pre/post-GST delay
// split, tick staggering and crash gating — the exact semantics the conform/
// lock-step driver builds on — independently of the sync simulator; the
// dispatch order itself is pinned by EventSimulatorDispatchOrder below.
struct EventGoldenCase {
  const char* name;
  std::uint64_t seed;
  std::int64_t tick_interval;
  std::int64_t max_delay;
  std::int64_t max_delay_pre_gst;
  std::int64_t gst;
  int n;
  std::vector<std::pair<ProcessId, std::int64_t>> crashes;
  std::int64_t horizon;
  std::uint64_t want;
};

std::uint64_t event_grid_fingerprint(const EventGoldenCase& c) {
  AsyncConfig config;
  config.seed = c.seed;
  config.tick_interval = c.tick_interval;
  config.max_delay = c.max_delay;
  config.max_delay_pre_gst = c.max_delay_pre_gst;
  config.gst = c.gst;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  for (ProcessId p = 0; p < c.n; ++p) {
    procs.push_back(std::make_unique<FloodMaxProcess>(p));
  }
  EventSimulator sim(config, std::move(procs));
  for (const auto& [p, at] : c.crashes) sim.schedule_crash(p, at);
  sim.run_until(c.horizon);

  std::uint64_t fp = kFnv1aBasis;
  for (ProcessId p = 0; p < c.n; ++p) {
    fp = fnv1a_bytes(fp, sim.process(p).snapshot_state().to_string());
  }
  fp = fnv1a_bytes(fp, std::to_string(sim.messages_sent()));
  fp = fnv1a_bytes(fp, std::to_string(sim.messages_delivered()));
  for (const bool b : sim.crashed_by_now()) fp = fnv1a_bytes(fp, b ? "1" : "0");
  return fp;
}

const std::vector<EventGoldenCase>& event_grid_cases() {
  static const std::vector<EventGoldenCase> cases = {
      {"gst-early/crash-after/n4", 2, 5, 10, 80, 50, 4, {{1, 60}}, 300, 0x97f5ff523c18c5ea},
      {"gst-late/no-crash/n5", 8, 7, 12, 150, 200, 5, {}, 350, 0x17743601e6dd7db2},
      {"double-crash-straddling-gst/n6", 13, 6, 9, 100, 100, 6,
       {{0, 30}, {4, 110}}, 320, 0xef4a830b0a0963aa},
      {"crash-in-chaos/n4", 21, 9, 8, 200, 120, 4, {{2, 10}}, 400, 0xc54b538697584f25},
      {"no-chaos/crash-mid/n3", 1, 4, 5, 5, 0, 3, {{1, 77}}, 250, 0xc4fb560897b9b139},
  };
  return cases;
}

TEST(GoldenFingerprint, EventSimulatorGstCrashGrid) {
  for (const auto& c : event_grid_cases()) {
    const std::uint64_t got = event_grid_fingerprint(c);
    EXPECT_EQ(got, c.want)
        << c.name << " fingerprint 0x" << std::hex << got;
  }
}

// Dispatch order.  The pins above fold final states (a max, which any
// delivery order reaches) and message counters, so they would not notice
// two same-time events swapping places.  DispatchProbe folds every dispatch
// the simulator makes — kind, time, target, sender and payload hash, in
// dispatch order — into one shared FNV state, and otherwise floods the max
// like FloodMaxProcess.
class DispatchProbe : public AsyncProcess {
 public:
  DispatchProbe(ProcessId self, std::uint64_t* fold)
      : flood_(self), fold_(fold) {}

  void on_start(AsyncContext& ctx) override { flood_.on_start(ctx); }
  void on_tick(AsyncContext& ctx) override {
    record(0, ctx, ctx.self(), 0);
    flood_.on_tick(ctx);
  }
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override {
    record(1, ctx, from, payload.hash());
    flood_.on_message(ctx, from, payload);
  }
  Value snapshot_state() const override { return flood_.snapshot_state(); }
  void restore_state(const Value& state) override {
    flood_.restore_state(state);
  }

 private:
  void record(std::uint64_t kind, const AsyncContext& ctx, ProcessId from,
              std::uint64_t payload_hash) {
    *fold_ = fnv1a_u64(*fold_, kind);
    *fold_ = fnv1a_u64(*fold_, static_cast<std::uint64_t>(ctx.now()));
    *fold_ = fnv1a_u64(*fold_, static_cast<std::uint64_t>(ctx.self()));
    *fold_ = fnv1a_u64(*fold_, static_cast<std::uint64_t>(from));
    *fold_ = fnv1a_u64(*fold_, payload_hash);
  }

  FloodMaxProcess flood_;
  std::uint64_t* fold_;
};

std::uint64_t dispatch_order_fingerprint(
    const EventGoldenCase& c, EventSimulator::DelayPolicy policy = {}) {
  AsyncConfig config;
  config.seed = c.seed;
  config.tick_interval = c.tick_interval;
  config.max_delay = c.max_delay;
  config.max_delay_pre_gst = c.max_delay_pre_gst;
  config.gst = c.gst;
  std::uint64_t fold = kFnv1aBasis;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  for (ProcessId p = 0; p < c.n; ++p) {
    procs.push_back(std::make_unique<DispatchProbe>(p, &fold));
  }
  EventSimulator sim(config, std::move(procs));
  if (policy) sim.set_delay_policy(std::move(policy));
  for (const auto& [p, at] : c.crashes) sim.schedule_crash(p, at);
  sim.run_until(c.horizon);
  fold = fnv1a_u64(fold, static_cast<std::uint64_t>(sim.messages_sent()));
  fold = fnv1a_u64(fold, static_cast<std::uint64_t>(sim.messages_delivered()));
  return fold;
}

TEST(GoldenFingerprint, EventSimulatorDispatchOrder) {
  // One pin per EventSimulatorGstCrashGrid case, in the same order.
  const std::uint64_t want[] = {
      0x02d3bc91f8d1e11e, 0xfcb2642de761a1f6, 0xa957b15b0dcc301f,
      0x1f688eacd527d342, 0xe44a89dc4760d729,
  };
  const auto& cases = event_grid_cases();
  ASSERT_EQ(std::size(want), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got = dispatch_order_fingerprint(cases[i]);
    EXPECT_EQ(got, want[i])
        << cases[i].name << " dispatch order 0x" << std::hex << got;
  }

  // Many events due at one time.  Every message between two processes is
  // due at the next multiple of 10, so each such time holds the messages
  // of ten ticks plus the ticks due then.  A message to oneself has delay
  // 0: a tick's broadcast delivers its own copy at the tick's time, after
  // every event already due at that time.
  const EventGoldenCase crowded = {
      "crowded/self-delay-0/n6", 3, 5, 10, 10, 0, 6, {{2, 33}}, 200, 0};
  const std::uint64_t got = dispatch_order_fingerprint(
      crowded, [](ProcessId from, ProcessId to, Time now) -> Time {
        return from == to ? 0 : 10 - now % 10;
      });
  EXPECT_EQ(got, 0x528bc68a5c02a49cULL) << "crowded dispatch order 0x" << std::hex << got;
}

}  // namespace
}  // namespace ftss
