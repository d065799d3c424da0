// Tests for the observability layer: the trace tape and its JSONL/Chrome
// renderings, the metrics registry's deterministic merge, causal export,
// and the dump extensions.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "core/compiler.h"
#include "obs/causal_export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "protocols/floodset.h"
#include "sim/history_dump.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::clock_state;
using testing::round_agreement_system;

// A small adversarial run: one corrupted clock, one crash, one receive-deaf
// process — exercises deliver, every drop cause, fault manifestation and a
// coterie change.
SyncSimulator traced_sim(int max_extra_delay = 0) {
  SyncConfig config;
  config.seed = 3;
  config.max_extra_delay = max_extra_delay;
  SyncSimulator sim(config, round_agreement_system(4));
  sim.corrupt_state(1, clock_state(50));
  sim.set_fault_plan(2, FaultPlan::crash(3));
  FaultPlan deaf;
  deaf.receive_omissions.push_back(OmissionRule{});
  sim.set_fault_plan(3, deaf);
  return sim;
}

// The tape's JSONL rendering, parsed back one line at a time.
std::vector<Value> jsonl_events(const TraceTape& tape) {
  std::vector<Value> events;
  std::istringstream in(trace_to_jsonl(tape));
  std::string line;
  while (std::getline(in, line)) {
    auto v = Value::parse(line);
    EXPECT_TRUE(v.has_value()) << line;
    if (v) events.push_back(std::move(*v));
  }
  return events;
}

std::map<std::string, int> kind_counts(const TraceTape& tape) {
  std::map<std::string, int> counts;
  for (const Value& v : jsonl_events(tape)) ++counts[v.at("ev").string_or("?")];
  return counts;
}

TEST(JsonlTrace, RoundTripsAgainstHistory) {
  SyncSimulator sim = traced_sim();
  TraceTape tape;
  sim.set_trace_sink(&tape);
  sim.run_rounds(5);
  const History& h = sim.history();

  int sent = 0, delivered = 0, dropped = 0, coterie_changes = 0;
  for (std::size_t i = 0; i < h.rounds.size(); ++i) {
    const auto& rec = h.rounds[i];
    for (const auto& s : rec.sends) {
      ++sent;
      if (s.fate == Fate::kDelivered) ++delivered;
      if (s.fate == Fate::kDroppedBySender ||
          s.fate == Fate::kDroppedByReceiver ||
          s.fate == Fate::kDestCrashed) {
        ++dropped;
      }
    }
    if (i == 0 || rec.coterie != h.rounds[i - 1].coterie) ++coterie_changes;
  }

  auto counts = kind_counts(tape);
  EXPECT_EQ(counts["round_begin"], h.length());
  EXPECT_EQ(counts["round_end"], h.length());
  // No jitter: every sent message resolves in its sending round, so the
  // trace's send/deliver/drop events match the history's send records.
  EXPECT_EQ(counts["send"], sent);
  EXPECT_EQ(counts["deliver"], delivered);
  EXPECT_EQ(counts["drop"], dropped);
  EXPECT_EQ(delivered + dropped, sent);
  EXPECT_EQ(counts["coterie_change"], coterie_changes);
  // Exactly two faults manifest: the crash and the receive-omission.
  EXPECT_EQ(counts["fault_manifest"], 2);
  EXPECT_GT(counts["clock_adopt"], 0);
}

TEST(JsonlTrace, DropCausesAndFlowIdsRecorded) {
  SyncSimulator sim = traced_sim();
  TraceTape tape;
  sim.set_trace_sink(&tape);
  sim.run_rounds(4);

  bool saw_dest_crashed = false, saw_receive_omission = false;
  std::map<std::int64_t, int> flow_uses;
  for (const Value& v : jsonl_events(tape)) {
    const std::string ev = v.at("ev").string_or("?");
    if (ev == "drop") {
      const std::string cause = v.at("cause").string_or("?");
      saw_dest_crashed |= cause == "dest-crashed";
      saw_receive_omission |= cause == "receive-omission";
    }
    if (v.contains("flow")) ++flow_uses[v.at("flow").as_int()];
  }
  EXPECT_TRUE(saw_dest_crashed);
  EXPECT_TRUE(saw_receive_omission);
  // Every flow id is used exactly twice: the send and its resolution.
  for (const auto& [id, uses] : flow_uses) {
    EXPECT_EQ(uses, 2) << "flow " << id;
  }
}

TEST(JsonlTrace, RingBufferKeepsNewestEvents) {
  SyncSimulator whole_sim = traced_sim();
  TraceTape whole;
  whole_sim.set_trace_sink(&whole);
  whole_sim.run_rounds(10);
  SyncSimulator sim = traced_sim();
  TraceTape ring(/*capacity=*/16);
  sim.set_trace_sink(&ring);
  sim.run_rounds(10);

  ASSERT_GT(whole.events().size(), 16u);
  EXPECT_EQ(ring.events().size(), 16u);
  const TraceEvent& last = ring.events().back();
  EXPECT_EQ(last.kind, TraceEventKind::kRoundEnd);
  EXPECT_EQ(last.round, sim.history().length());
  // The ring is the unbounded tape's tail, and rendering only the newest
  // 16 events of the unbounded tape writes the same lines.
  const std::string tail = trace_to_jsonl(whole, 16);
  EXPECT_EQ(trace_to_jsonl(ring), tail);
  EXPECT_EQ(std::count(tail.begin(), tail.end(), '\n'), 16);
  EXPECT_EQ(trace_to_jsonl(ring, 100), tail);
}

TEST(JsonlTrace, JitterDelaysAppearInTraceAndMetrics) {
  SyncSimulator sim = traced_sim(/*max_extra_delay=*/2);
  TraceTape tape;
  sim.set_trace_sink(&tape);
  sim.run_rounds(8);
  const History& h = sim.history();

  int delayed = 0, total = 0, in_flight = 0;
  for (const auto& rec : h.rounds) {
    for (const auto& s : rec.sends) {
      ++total;
      if (s.delivery_round != s.sent_round) ++delayed;
      if (s.fate == Fate::kLostInFlight) ++in_flight;
    }
  }
  ASSERT_GT(delayed, 0) << "seed produced no jittered messages";

  // Trace/history consistency: every send in the history has exactly one
  // trace resolution — delivered, dropped, or flushed as in-flight at the
  // end of the run (traced as a drop with cause "in-flight-at-end").
  auto counts = kind_counts(tape);
  EXPECT_EQ(counts["send"], total);
  EXPECT_EQ(counts["deliver"] + counts["drop"], total);

  MetricsRegistry reg;
  record_history_metrics(h, reg);
  const auto& counters = reg.snapshot().counters;
  EXPECT_EQ(counters.at("msgs_delayed"), delayed);
  const auto in_flight_it = counters.find("msgs_in_flight_at_end");
  EXPECT_EQ(in_flight_it != counters.end() ? in_flight_it->second : 0,
            in_flight);

  // The dump's per-send lines expose the delay (satellite of this layer).
  DumpOptions options;
  options.show_sends = true;
  EXPECT_NE(history_to_string(h, options).find(", delay "), std::string::npos);
}

TEST(Metrics, HistoryCountersMatchHistory) {
  SyncSimulator sim = traced_sim();
  sim.run_rounds(5);
  const History& h = sim.history();

  std::int64_t sent = 0, delivered = 0;
  for (const auto& rec : h.rounds) {
    for (const auto& s : rec.sends) {
      ++sent;
      if (s.fate == Fate::kDelivered) ++delivered;
    }
  }
  MetricsRegistry reg;
  record_history_metrics(h, reg);
  const MetricsSnapshot& snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("rounds"), h.length());
  EXPECT_EQ(snap.counters.at("msgs_sent"), sent);
  EXPECT_EQ(snap.counters.at("msgs_delivered"), delivered);
  EXPECT_GT(snap.counters.at("msgs_dropped_receive_omission"), 0);
  EXPECT_GT(snap.counters.at("msgs_dropped_dest_crashed"), 0);
  EXPECT_EQ(snap.gauges.at("faulty_processes"), 2);
  EXPECT_EQ(snap.histograms.at("coterie_size").count, h.length());
}

TEST(Metrics, MergeIsAssociativeAndCommutative) {
  auto make = [](std::int64_t base) {
    MetricsRegistry r;
    r.add("trials", base);
    r.add(base % 2 == 0 ? "even" : "odd");
    r.gauge_max("peak", base * 3);
    r.observe("lat", base % 5, stabilization_latency_bounds());
    r.observe("lat", base % 7, stabilization_latency_bounds());
    return r.snapshot();
  };
  const MetricsSnapshot a = make(2), b = make(3), c = make(10);

  MetricsSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  MetricsSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  MetricsSnapshot right = a;
  right.merge(bc);
  MetricsSnapshot rev = c;    // (c + b) + a
  rev.merge(b);
  rev.merge(a);

  EXPECT_EQ(left.to_value(), right.to_value());
  EXPECT_EQ(left.to_value(), rev.to_value());
  EXPECT_EQ(left.fingerprint(), rev.fingerprint());
  EXPECT_EQ(left.counters.at("trials"), 15);
  EXPECT_EQ(left.gauges.at("peak"), 30);
  EXPECT_EQ(left.histograms.at("lat").count, 6);
}

TEST(Metrics, MismatchedHistogramBoundsDegradeToSummary) {
  MetricsRegistry a, b;
  a.observe("h", 1, {1, 2});
  a.observe("h", 5, {1, 2});
  b.observe("h", 7, {10});

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramData& h = merged.histograms.at("h");
  EXPECT_TRUE(h.bounds.empty());  // layout conflict -> summary only
  EXPECT_TRUE(h.counts.empty());
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.sum, 13);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 7);
}

TEST(Metrics, ExplorerAggregateIsThreadCountInvariant) {
  ExplorerConfig config;
  config.trials = 24;
  config.seed = 7;
  config.shrink = false;

  config.jobs = 1;
  const ExplorerReport serial = explore(config);
  config.jobs = 3;
  const ExplorerReport parallel = explore(config);

  // The stable part (counters, gauges, round-based histograms) is
  // byte-identical for any worker count; the wall-clock trial_ns histogram
  // rides alongside without perturbing it.
  EXPECT_EQ(serial.metrics.fingerprint(), parallel.metrics.fingerprint());
  EXPECT_EQ(serial.metrics.stable_value(), parallel.metrics.stable_value());
  EXPECT_EQ(serial.metrics.counters.at("trials"), 24);
  EXPECT_EQ(serial.metrics.histograms.at("trial_ns").count, 24);
  EXPECT_TRUE(serial.metrics.histograms.at("trial_ns").wall_clock);
}

TEST(Metrics, FingerprintExcludesWallClockHistograms) {
  MetricsRegistry base;
  base.add("trials", 3);
  base.observe("lat", 2, stabilization_latency_bounds());

  MetricsRegistry timed;
  timed.add("trials", 3);
  timed.observe("lat", 2, stabilization_latency_bounds());
  timed.observe_nanos("phase_ns", 1234);
  timed.observe_nanos("phase_ns", 99999);

  // Identical stable fingerprint with and without the timing histogram...
  EXPECT_EQ(base.snapshot().fingerprint(), timed.snapshot().fingerprint());
  EXPECT_EQ(base.snapshot().stable_value(), timed.snapshot().stable_value());
  // ...but the full snapshot and the timing view do carry it.
  EXPECT_TRUE(timed.snapshot().to_value().at("histograms").contains(
      "phase_ns"));
  EXPECT_TRUE(timed.snapshot().timing_value().at("histograms").contains(
      "phase_ns"));
  EXPECT_FALSE(timed.snapshot().stable_value().at("histograms").contains(
      "phase_ns"));
}

TEST(Metrics, TimingHistogramMergeIsOrderInvariant) {
  auto make = [](std::int64_t scale) {
    MetricsRegistry r;
    for (std::int64_t i = 1; i <= 6; ++i) {
      r.observe_nanos("round_ns", i * scale);
    }
    return r.snapshot();
  };
  const MetricsSnapshot a = make(100), b = make(7777), c = make(1000000);

  MetricsSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  MetricsSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  MetricsSnapshot right = a;
  right.merge(bc);
  MetricsSnapshot rev = c;    // (c + b) + a
  rev.merge(b);
  rev.merge(a);

  EXPECT_EQ(left.to_value(), right.to_value());
  EXPECT_EQ(left.to_value(), rev.to_value());
  const HistogramData& h = left.histograms.at("round_ns");
  EXPECT_TRUE(h.wall_clock);
  EXPECT_EQ(h.count, 18);
  EXPECT_EQ(h.bounds, latency_nanos_bounds());  // same family: no degrade
}

TEST(Metrics, BoundsFamiliesAreSharedAndLogBucketed) {
  EXPECT_EQ(&bounds_for(BoundsFamily::kRounds),
            &stabilization_latency_bounds());
  EXPECT_EQ(&bounds_for(BoundsFamily::kCoterieSize), &coterie_size_bounds());
  EXPECT_EQ(&bounds_for(BoundsFamily::kLatencyNanos), &latency_nanos_bounds());
  const auto& ns = latency_nanos_bounds();
  ASSERT_GE(ns.size(), 2u);
  EXPECT_EQ(ns.front(), 64);
  for (std::size_t i = 1; i < ns.size(); ++i) {
    EXPECT_EQ(ns[i], ns[i - 1] * 2);  // HDR-style: power-of-two buckets
  }
}

TEST(Metrics, PercentileUpperBracketsObservations) {
  HistogramData h;
  h.bounds = latency_nanos_bounds();
  h.wall_clock = true;
  EXPECT_EQ(h.percentile_upper(50), 0);  // empty
  for (int i = 0; i < 98; ++i) h.observe(100);
  h.observe(5000);
  h.observe(1000000);
  // p50 lands in 100's bucket (bound 128); p99 in 5000's (8192); p100 is
  // clamped to the observed max exactly.
  EXPECT_EQ(h.percentile_upper(50), 128);
  EXPECT_EQ(h.percentile_upper(99), 8192);
  EXPECT_EQ(h.percentile_upper(100), 1000000);
  // Serialized summaries ride in to_value for wall-clock histograms only.
  const Value v = h.to_value();
  EXPECT_EQ(v.at("unit").string_or(""), "ns");
  EXPECT_EQ(v.at("p50").int_or(0), 128);
  HistogramData rounds;
  rounds.bounds = stabilization_latency_bounds();
  rounds.observe(1);
  EXPECT_FALSE(rounds.to_value().contains("p50"));
}

TEST(ChromeTrace, ParsesAsJsonWithSpansAndFlows) {
  SyncSimulator sim = traced_sim();
  TraceTape tape;
  sim.set_trace_sink(&tape);
  sim.run_rounds(5);

  const auto doc = Value::parse(trace_to_chrome(tape));
  ASSERT_TRUE(doc.has_value());
  const Value& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  int spans = 0, flow_starts = 0, flow_ends = 0, counters = 0;
  for (const Value& e : events.as_array()) {
    const std::string ph = e.at("ph").string_or("?");
    if (ph == "X") ++spans;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_ends;
    if (ph == "C") ++counters;
  }
  EXPECT_GT(spans, 0);
  EXPECT_GT(flow_starts, 0);
  EXPECT_EQ(flow_starts, flow_ends);  // every arrow has both endpoints
  EXPECT_GT(counters, 0);             // clock_adopt counter track
}

TEST(CausalExport, DotContainsProcessRoundNodesAndMessageEdges) {
  SyncSimulator sim = traced_sim();
  sim.run_rounds(4);
  const std::string dot = causal_dot_to_string(sim.history());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("p0_r1"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("cluster"), std::string::npos);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The tests above parse the exporters' output; this one pins its exact
// bytes, so a refactor of the writers cannot move a single character.
// Each fold covers traced_sim() without and with jitter (the second run
// adds in-flight-at-end drops).
TEST(Exporters, OutputBytesArePinned) {
  std::uint64_t trace = 0xcbf29ce484222325ULL;
  std::uint64_t dot = trace;
  for (const int delay : {0, 2}) {
    SyncSimulator sim = traced_sim(delay);
    TraceTape tape;
    sim.set_trace_sink(&tape);
    sim.run_rounds(5);
    trace = fnv1a(trace, trace_to_chrome(tape));
    dot = fnv1a(dot, causal_dot_to_string(sim.history()));
  }
  EXPECT_EQ(trace, 0xdf02b518a6f20949ULL) << std::hex << trace;
  EXPECT_EQ(dot, 0x261781d3ed2d1d6dULL) << std::hex << dot;

  // A hand-built two-thread flight dump: recorded dumps carry wall-clock
  // timestamps, so only a constructed one has stable bytes.
  const auto event = [](std::int64_t t_ns, FlightCat cat, FlightKind kind,
                        std::int64_t a, std::int64_t b) {
    return FlightEvent{.t_ns = t_ns,
                       .cat = static_cast<std::uint16_t>(cat),
                       .kind = static_cast<std::uint16_t>(kind),
                       .a = a,
                       .b = b};
  };
  FlightDump dump;
  dump.threads.push_back(FlightThreadDump{
      .tid = 0,
      .events = {event(1500, FlightCat::kTrial, FlightKind::kSpan, 7, 2500000),
                 event(4000, FlightCat::kReject, FlightKind::kInstant, 2, 5)}});
  dump.threads.push_back(FlightThreadDump{
      .tid = 3,
      .events_dropped = 9,
      .events = {event(2000, FlightCat::kRound, FlightKind::kSpan, 1, 999),
                 event(3500000, FlightCat::kMark, FlightKind::kInstant, -1,
                       42)}});
  const std::uint64_t flight =
      fnv1a(0xcbf29ce484222325ULL, flight_dump_to_chrome(dump));
  EXPECT_EQ(flight, 0x4976952ef370034eULL) << std::hex << flight;
}

TEST(Dump, ShowSuspectsRendersCompiledSuspectSets) {
  auto protocol = std::make_shared<FloodSetConsensus>(1);
  InputSource inputs = [](ProcessId p, std::int64_t) { return Value(p); };
  SyncSimulator sim(SyncConfig{.seed = 1},
                    compile_protocol(4, protocol, inputs));
  FaultPlan mute;
  mute.send_omissions.push_back(OmissionRule{});
  sim.set_fault_plan(3, mute);
  sim.run_rounds(6);

  DumpOptions options;
  options.show_suspects = true;
  const std::string text = history_to_string(sim.history(), options);
  EXPECT_NE(text.find("suspects:"), std::string::npos);
  // The mute process ends up suspected by some live process.
  EXPECT_NE(text.find("{3}"), std::string::npos);

  // Suspect sets are an opt-in column.
  DumpOptions quiet;
  EXPECT_EQ(history_to_string(sim.history(), quiet).find("suspects:"),
            std::string::npos);
}

TEST(Trace, SuspectDeltaEventsTrackCompiledSuspects) {
  auto protocol = std::make_shared<FloodSetConsensus>(1);
  InputSource inputs = [](ProcessId p, std::int64_t) { return Value(p); };
  SyncSimulator sim(SyncConfig{.seed = 1},
                    compile_protocol(4, protocol, inputs));
  FaultPlan mute;
  mute.send_omissions.push_back(OmissionRule{});
  sim.set_fault_plan(3, mute);
  TraceTape tape;
  sim.set_trace_sink(&tape);
  sim.run_rounds(6);

  bool saw_delta_adding_3 = false;
  for (const Value& v : jsonl_events(tape)) {
    if (v.at("ev").string_or("?") != "suspect_delta") continue;
    const Value& added = v.at("data").at("added");
    for (const Value& q : added.as_array()) {
      saw_delta_adding_3 |= q.int_or(-1) == 3;
    }
  }
  EXPECT_TRUE(saw_delta_adding_3);
}

}  // namespace
}  // namespace ftss
