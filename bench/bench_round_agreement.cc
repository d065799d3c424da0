// EXP1 — Figure 1 / Theorem 3: round agreement ftss-solves round agreement
// with stabilization time 1, for any corruption magnitude and up to f
// general-omission faults.
//
// Paper claim (Theorem 3): stabilization time of 1 round after the coterie
// stops changing.  Measured: max over seeds of the empirical stabilization
// time (first round from which Assumption 1 holds continuously, relative to
// the last coterie change).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/predicates.h"
#include "core/round_agreement.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ftss {
namespace {

std::vector<std::unique_ptr<SyncProcess>> system_of(int n) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<RoundAgreementProcess>(p));
  }
  return procs;
}

Value clock_state(Round c) {
  Value s;
  s["c"] = Value(c);
  return s;
}

struct Cell {
  Round max_stab = 0;
  double mean_stab = 0;
  bool all_ftss_ok = true;
  int unstable = 0;
  std::vector<Round> stabs;  // per-seed latencies, for the histogram
};

struct SeedResult {
  bool ftss_ok = true;
  std::optional<Round> stab;
};

Cell run_cell(int n, int f, std::int64_t magnitude, int seeds) {
  auto per_seed = parallel_sweep<SeedResult>(
      static_cast<std::size_t>(seeds), [&](std::size_t idx) {
        const auto seed = static_cast<std::uint64_t>(idx + 1);
        Rng rng(seed * 7919 + n * 131 + f);
        // The Thm 3 / Def 2.4 checkers read the per-round clock, coterie
        // and faulty columns only, so neither state snapshots nor
        // per-message SendRecords are recorded — which is what lets the
        // same cell runner serve the EXP19 n=1024 grid points.
        SyncSimulator sim(SyncConfig{.seed = seed,
                                     .record_states = false,
                                     .record_sends = false},
                          system_of(n));
        for (ProcessId p = 0; p < n; ++p) {
          sim.corrupt_state(p,
                            clock_state(rng.uniform(-magnitude, magnitude)));
        }
        for (int idx2 : rng.sample(n, f)) {
          switch (rng.uniform(0, 3)) {
            case 0:
              sim.set_fault_plan(idx2, FaultPlan::crash(rng.uniform(1, 10)));
              break;
            case 1:
              sim.set_fault_plan(idx2, FaultPlan::lossy(0.5, 0.3));
              break;
            case 2:
              sim.set_fault_plan(idx2,
                                 FaultPlan::hide_until(rng.uniform(2, 12)));
              break;
            default:
              sim.set_fault_plan(idx2, FaultPlan::mute());
              break;
          }
        }
        sim.run_rounds(40);
        return SeedResult{check_round_agreement_ftss(sim.history(), 1).ok,
                          measure_round_agreement(sim.history()).time()};
      });

  Cell cell;
  double total = 0;
  int counted = 0;
  for (const auto& r : per_seed) {
    cell.all_ftss_ok &= r.ftss_ok;
    if (r.stab) {
      cell.max_stab = std::max(cell.max_stab, *r.stab);
      cell.stabs.push_back(*r.stab);
      total += static_cast<double>(*r.stab);
      ++counted;
    } else {
      ++cell.unstable;
    }
  }
  cell.mean_stab = counted > 0 ? total / counted : -1;
  return cell;
}

void print_exp1(bench::JsonEmitter& json) {
  bench::Table table(
      "EXP1 (Fig 1, Thm 3): round-agreement stabilization time, paper bound = 1 round",
      {"n", "f", "corruption", "seeds", "max stab", "mean stab",
       "<= bound", "ftss(Def2.4) ok"});
  const int seeds = 20;
  MetricsRegistry reg;  // aggregate stabilization latencies across all cells
  bool all_bounded = true;
  bool all_ftss = true;
  for (int n : {4, 8, 16, 32, 64}) {
    const int f = (n - 1) / 2;
    for (std::int64_t magnitude : {10LL, 1000LL, 1000000LL}) {
      Cell cell = run_cell(n, f, magnitude, seeds);
      for (Round s : cell.stabs) {
        reg.observe("stabilization_latency", s, stabilization_latency_bounds());
      }
      reg.add("seeds_total", seeds);
      reg.add("seeds_unstable", cell.unstable);
      all_bounded &= cell.max_stab <= 1 && cell.unstable == 0;
      all_ftss &= cell.all_ftss_ok;
      table.add_row({bench::fmt(static_cast<std::int64_t>(n)),
                     bench::fmt(static_cast<std::int64_t>(f)),
                     bench::fmt(magnitude),
                     bench::fmt(static_cast<std::int64_t>(seeds)),
                     bench::fmt(cell.max_stab), bench::fmt(cell.mean_stab),
                     bench::pass(cell.max_stab <= 1 && cell.unstable == 0),
                     bench::pass(cell.all_ftss_ok)});
    }
  }
  table.print();
  // Theorem 3 in machine-readable form: the whole histogram mass must sit
  // at <= 1 round (max of the latency histogram is the max over all seeds).
  const MetricsSnapshot& snap = reg.snapshot();
  const auto it = snap.histograms.find("stabilization_latency");
  const bool mass_at_most_1 =
      it != snap.histograms.end() && it->second.count > 0 &&
      it->second.max <= 1 && snap.counters.at("seeds_unstable") == 0;
  json.set_metrics(snap.to_value());
  json.add_check("thm3_stabilization_mass_at_most_1_round", mass_at_most_1);
  json.add_check("thm3_all_cells_within_bound", all_bounded);
  json.add_check("def24_ftss_holds_all_cells", all_ftss);
}

// EXP19 — Theorem 3 at scale: the stabilization bound is n-independent, so
// it must keep holding verbatim at the grid sizes the scaling work opened
// up.  Few seeds (each n=1024 seed is 40 all-to-all rounds = 4*10^7
// resolved messages); the statistical weight lives in EXP1, this table is
// the correctness anchor for the performance grid.
void print_exp19(bench::JsonEmitter& json) {
  bench::Table table(
      "EXP19 (scale): round-agreement stabilization at grid sizes, bound = 1 round",
      {"n", "f", "corruption", "seeds", "max stab", "mean stab", "<= bound",
       "ftss(Def2.4) ok"});
  const int seeds = 3;
  bool all_bounded = true;
  bool all_ftss = true;
  for (int n : {256, 1024}) {
    const int f = (n - 1) / 2;
    const std::int64_t magnitude = 1000000;
    Cell cell = run_cell(n, f, magnitude, seeds);
    all_bounded &= cell.max_stab <= 1 && cell.unstable == 0;
    all_ftss &= cell.all_ftss_ok;
    table.add_row({bench::fmt(static_cast<std::int64_t>(n)),
                   bench::fmt(static_cast<std::int64_t>(f)),
                   bench::fmt(magnitude),
                   bench::fmt(static_cast<std::int64_t>(seeds)),
                   bench::fmt(cell.max_stab), bench::fmt(cell.mean_stab),
                   bench::pass(cell.max_stab <= 1 && cell.unstable == 0),
                   bench::pass(cell.all_ftss_ok)});
  }
  table.print();
  json.add_check("thm3_holds_at_grid_scale", all_bounded);
  json.add_check("def24_ftss_holds_at_grid_scale", all_ftss);
}

// Substrate timing: cost of one simulated all-to-all round.
void BM_RoundAgreementRounds(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                      system_of(n));
    sim.run_rounds(20);
    benchmark::DoNotOptimize(sim.history().length());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_RoundAgreementRounds)->Arg(4)->Arg(16)->Arg(64);

// EXP19/EXP20 scaling grid: the same substrate at n in {256, 1024, 4096,
// 10000} (args: n, rounds, threads — fewer rounds at larger n so one
// iteration stays bounded; a 10^4-process round is 10^8 messages).  The
// threads axis drives EXP20's speedup curve: the parallel engine is
// byte-identical at any lane count, so every point computes the same
// history and only the wall clock moves.  History keeps the per-round
// clock/coterie/faulty columns the scale checkers read but not per-message
// SendRecords — at this n those are the difference between megabytes and
// gigabytes per round.  The msgs_per_round counter is deterministic;
// timing diffs ride on cpu_ns_per_iter as usual — measured as PROCESS cpu
// time (MeasureProcessCPUTime below), because the default main-thread cpu
// clock goes dark the moment lanes do the work (the main thread blocks in
// the pool and a threads=8 point would read as a fantasy 100× "speedup"
// even on one core).  Process cpu ≈ total work: roughly flat across the
// threads axis plus visible coordination overhead, which is exactly what a
// regression gate wants.  The speedup curve itself is wall clock: real
// time (UseRealTime drives iteration pacing and items_per_second).
void BM_ScaledRounds(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  for (auto _ : state) {
    SyncSimulator sim(SyncConfig{.seed = 1,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      system_of(n));
    sim.run_rounds(rounds);
    benchmark::DoNotOptimize(sim.history().length());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
  state.counters["msgs_per_round"] =
      benchmark::Counter(static_cast<double>(n) * n);
}
BENCHMARK(BM_ScaledRounds)
    ->Args({256, 20, 1})
    ->Args({1024, 20, 1})
    ->Args({1024, 20, 2})
    ->Args({1024, 20, 4})
    ->Args({1024, 20, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The two largest grid points run exactly one iteration each: a single
// n=10^4 iteration is ~2*10^8 resolved messages, which is plenty of signal
// for trajectory tracking and keeps the full-grid (nightly) run bounded.
void BM_ScaledRoundsLarge(benchmark::State& state) {
  BM_ScaledRounds(state);
}
BENCHMARK(BM_ScaledRoundsLarge)
    ->Args({4096, 5, 1})
    ->Args({4096, 5, 2})
    ->Args({4096, 5, 4})
    ->Args({4096, 5, 8})
    ->Args({10000, 2, 1})
    ->Args({10000, 2, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Iterations(1);

// The tag read every sync protocol makes per delivered message, on maps on
// both sides of Value's scan threshold (args: entries, probe: 0 the first
// key, 1 the last, 2 an absent one).  Keys are one byte, 'a' upward, and
// the probe's length is a compile-time 1 as a literal tag's is, so the
// key compare inlines as it does on the hot path; its byte is run-time
// data.  1024 separate maps stand in for one round's inbox at n = 1024.
void BM_ValueAt(benchmark::State& state) {
  const auto entries = static_cast<int>(state.range(0));
  const auto probe = state.range(1);
  std::vector<Value> maps(1024);
  for (Value& m : maps) {
    for (int i = 0; i < entries; ++i) {
      m[std::string(1, static_cast<char>('a' + i))] = Value(i);
    }
  }
  const char key = probe == 0   ? 'a'
                   : probe == 1 ? static_cast<char>('a' + entries - 1)
                                : 'z';
  for (auto _ : state) {
    for (const Value& m : maps) {
      benchmark::DoNotOptimize(&m.at(std::string_view(&key, 1)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(maps.size()));
}
BENCHMARK(BM_ValueAt)
    ->ArgsProduct({{2, 3, 4, 5, 8}, {0, 1, 2}})
    ->ArgNames({"entries", "probe"});

void BM_FtssCheck(benchmark::State& state) {
  SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                    system_of(16));
  sim.corrupt_state(0, clock_state(1000));
  sim.run_rounds(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_round_agreement_ftss(sim.history(), 1).ok);
  }
}
BENCHMARK(BM_FtssCheck);

}  // namespace
}  // namespace ftss

int main(int argc, char** argv) {
  ftss::bench::JsonEmitter json("round_agreement", &argc, argv);
  ftss::print_exp1(json);
  ftss::print_exp19(json);
  benchmark::Initialize(&argc, argv);
  json.run_benchmarks();
  return json.finish();
}
