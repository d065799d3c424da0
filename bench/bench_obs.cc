// EXP18 — observability plane overhead and transport latency percentiles.
//
// Three claims to pin:
//   1. recording a flight event is cheap (tens of ns) and recording with
//      the recorder disabled is nearly free — cheap enough to leave the
//      recorder always-on;
//   2. the untraced simulator hot loop carries zero emission code, so the
//      recorder being enabled costs BM_CompiledRounds/32/3 nothing
//      (<2% — i.e. measurement noise; checked below);
//   3. the transport leg's wall-clock latency histograms (hub round
//      dispatch, frame encode/decode) report stable log-bucketed
//      percentiles at realistic process counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/adversary.h"
#include "core/compiler.h"
#include "net/transport.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "protocols/floodset.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

InputSource int_inputs() {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(100 * iteration + p);
  };
}

// --- Per-event record cost ------------------------------------------------

void BM_FlightInstant(benchmark::State& state) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(true);
  r.reset();
  std::int64_t i = 0;
  for (auto _ : state) {
    FlightRecorder::instant(FlightCat::kMark, i++, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightInstant);

void BM_FlightInstantDisabled(benchmark::State& state) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(false);
  r.reset();
  std::int64_t i = 0;
  for (auto _ : state) {
    FlightRecorder::instant(FlightCat::kMark, i++, 0);
  }
  r.set_enabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightInstantDisabled);

void BM_FlightSpan(benchmark::State& state) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(true);
  r.reset();
  for (auto _ : state) {
    FlightRecorder::span(FlightCat::kRound, 0, FlightRecorder::now_ns());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightSpan);

// One full profiler scope: two clock reads, a histogram observation and a
// flight span.  This is what instrumenting one codec call costs.
void BM_ScopedTimer(benchmark::State& state) {
  FlightRecorder::global().set_enabled(true);
  HistogramData hist;
  hist.bounds = latency_nanos_bounds();
  for (auto _ : state) {
    ScopedTimer timer(&hist, FlightCat::kEncode);
    benchmark::DoNotOptimize(timer.elapsed_ns());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["observations"] = static_cast<double>(hist.count);
}
BENCHMARK(BM_ScopedTimer);

// Dump + encode of a full default-capacity ring (what a failure costs).
void BM_FlightDumpEncode(benchmark::State& state) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(true);
  r.reset();
  for (std::int64_t i = 0; i < 8192; ++i) {
    FlightRecorder::instant(FlightCat::kMark, i, i);
  }
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::uint8_t> out;
    encode_flight_dump(r.dump(), out);
    benchmark::DoNotOptimize(out.data());
    bytes += static_cast<std::int64_t>(out.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_FlightDumpEncode);

// --- Hot-loop overhead guard ---------------------------------------------

// bench_compiler's BM_CompiledRounds/32/3 loop body, verbatim, with the
// recorder state as the third arg (0 = disabled, 1 = enabled).  The
// simulator has no flight emission sites (instrumentation lives in the
// transport/checker layers), so both variants must time identically.
void BM_CompiledRounds(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = static_cast<int>(state.range(1));
  FlightRecorder::global().set_enabled(state.range(2) != 0);
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  for (auto _ : state) {
    SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                      compile_protocol(n, protocol, int_inputs()));
    sim.run_rounds(20);
    benchmark::DoNotOptimize(sim.history().length());
  }
  FlightRecorder::global().set_enabled(true);
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_CompiledRounds)->Args({32, 3, 0})->Args({32, 3, 1});

// Median-of-k inline measurement backing the <2% acceptance check (the
// google-benchmark numbers above show the same thing but are not
// self-comparing).
double timed_compiled_run_ns(bool recorder_on) {
  static auto protocol = std::make_shared<FloodSetConsensus>(3);
  FlightRecorder::global().set_enabled(recorder_on);
  const std::int64_t t0 = FlightRecorder::now_ns();
  SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                    compile_protocol(32, protocol, int_inputs()));
  sim.run_rounds(20);
  benchmark::DoNotOptimize(sim.history().length());
  const std::int64_t t1 = FlightRecorder::now_ns();
  FlightRecorder::global().set_enabled(true);
  return static_cast<double>(t1 - t0) / 20.0;
}

double median(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

void print_overhead_guard(bench::JsonEmitter& json) {
  const int reps = 9;
  // Warm-up to page in the code path, then alternate the arms rep by rep
  // so clock/cache drift over the measurement hits both equally.
  timed_compiled_run_ns(false);
  timed_compiled_run_ns(true);
  std::vector<double> off_ns, on_ns;
  for (int i = 0; i < reps; ++i) {
    off_ns.push_back(timed_compiled_run_ns(false));
    on_ns.push_back(timed_compiled_run_ns(true));
  }
  const double off = median(off_ns);
  const double on = median(on_ns);
  const double overhead_pct = (on / off - 1.0) * 100.0;

  bench::Table table(
      "EXP18a: flight recorder overhead on the compiled hot loop "
      "(BM_CompiledRounds/32/3 body, median of 9, ns/round)",
      {"recorder", "ns/round", "overhead"});
  table.add_row({"disabled", bench::fmt(off), "-"});
  table.add_row({"enabled", bench::fmt(on),
                 bench::fmt(overhead_pct) + "%"});
  table.print();
  std::printf(
      "The simulator loop has no flight emission sites (instrumentation is "
      "in the\ntransport/checker layers), so the delta is measurement "
      "noise.\n");
  // The acceptance bound: enabling the recorder may not cost the untraced
  // hot loop more than 2%.  (Negative deltas are noise in its favor.)
  json.add_check("recorder_overhead_under_2pct", overhead_pct < 2.0);
}

// --- Transport latency percentiles ---------------------------------------

// Rounds per n.  hub_round_ns gets one observation per round, and n = 64
// costs ≈26 ms a round on a 4-vCPU host, so 100 rounds give it a p90.
constexpr int kLatencyRounds = 100;

// A tail percentile says more than the max only with at least ten
// observations beyond it: p90 needs 100, p99 needs 1000.  Below that it
// prints "-".
std::string tail_percentile(const HistogramData& h, int pct) {
  if (h.count * (100 - pct) < 10 * 100) return "-";
  return bench::fmt(h.percentile_upper(pct));
}

void print_transport_latency(bench::JsonEmitter& json) {
  bench::Table table("EXP18b: socket transport latency percentiles "
                     "(round-agreement, " +
                         std::to_string(kLatencyRounds) +
                         " rounds, log-bucketed ns)",
                     {"n", "histogram", "count", "p50", "p90", "p99", "max"});
  bool all_populated = true;
  for (const int n : {8, 32, 64}) {
    TrialPlan plan;
    plan.trial_seed = 17;
    plan.mode = TrialMode::kRoundAgreementSync;
    plan.n = n;
    plan.rounds = kLatencyRounds;
    const TransportResult r = run_transport_trial(plan);
    if (!r.supported) {
      all_populated = false;
      continue;
    }
    for (const char* name :
         {"hub_round_ns", "wire_encode_ns", "wire_decode_ns"}) {
      const auto it = r.timing.histograms.find(name);
      if (it == r.timing.histograms.end() || it->second.count == 0) {
        all_populated = false;
        continue;
      }
      const HistogramData& h = it->second;
      table.add_row({bench::fmt(static_cast<std::int64_t>(n)), name,
                     bench::fmt(h.count), bench::fmt(h.percentile_upper(50)),
                     tail_percentile(h, 90), tail_percentile(h, 99),
                     bench::fmt(h.max)});
    }
    // The timing histograms never leak into stable fingerprints.
    all_populated &= r.timing.fingerprint() == MetricsSnapshot{}.fingerprint();
  }
  table.print();
  json.add_check("transport_latency_histograms_populated", all_populated);
}

}  // namespace
}  // namespace ftss

int main(int argc, char** argv) {
  ftss::bench::JsonEmitter json("obs", &argc, argv);
  ftss::print_overhead_guard(json);
  ftss::print_transport_latency(json);
  benchmark::Initialize(&argc, argv);
  json.run_benchmarks();
  return json.finish();
}
