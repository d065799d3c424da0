// EXP7 — cost of the §2.4 compiler and ablation of its defenses.
//
// (a) Wire overhead: payload bytes per round of Π⁺ vs bare Π (the ROUND tag
//     and suspect machinery are the only additions; message COUNT is
//     identical, n per process per round).
// (b) Ablations: disable the round-tag filter or the suspect-set filter and
//     measure how often post-corruption iterations stay dirty — the
//     "insidious problem" of §2.4 becoming visible.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compiler.h"
#include "core/full_info.h"
#include "core/round_agreement.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "protocols/floodset.h"
#include "protocols/repeated.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

InputSource int_inputs() {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(100 * iteration + p);
  };
}

// For the wire comparison the compiled run must propose byte-identical
// values to the bare run (iteration 0 inputs == 100 + p), or the payload
// diff would measure input-encoding width instead of compiler overhead.
InputSource wire_inputs() {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(100 * (iteration + 1) + p);
  };
}

struct Wire {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  Round rounds = 0;
};

Wire measure_wire(const History& h) {
  Wire w;
  w.rounds = h.length();
  for (const auto& rec : h.rounds) {
    for (const auto& s : rec.sends) {
      ++w.messages;
      w.bytes += static_cast<std::int64_t>(s.payload.to_string().size());
    }
  }
  return w;
}

void print_wire_overhead() {
  bench::Table table(
      "EXP7a: wire cost per round, bare Pi (Fig 2) vs compiled Pi+ (Fig 3), "
      "FloodSet consensus",
      {"n", "final_round", "protocol", "msgs/round", "bytes/round",
       "bytes overhead"});
  for (int n : {4, 16}) {
    for (int f : {1, 3, 5, 11}) {
      if (f + 1 > n) continue;
      auto protocol = std::make_shared<FloodSetConsensus>(f);
      const int rounds = f + 1;

      // Bare Π: one iteration.
      std::vector<std::unique_ptr<SyncProcess>> bare;
      for (ProcessId p = 0; p < n; ++p) {
        bare.push_back(std::make_unique<FullInfoProcess>(
            p, n, protocol, Value(100 + p)));
      }
      SyncSimulator bare_sim(SyncConfig{.seed = 1}, std::move(bare));
      bare_sim.run_rounds(rounds);
      Wire bare_wire = measure_wire(bare_sim.history());

      // Compiled Π⁺: same number of rounds (one iteration's worth).
      SyncSimulator plus_sim(SyncConfig{.seed = 1},
                             compile_protocol(n, protocol, wire_inputs()));
      plus_sim.run_rounds(rounds);
      Wire plus_wire = measure_wire(plus_sim.history());

      const double bare_bpr =
          static_cast<double>(bare_wire.bytes) / bare_wire.rounds;
      const double plus_bpr =
          static_cast<double>(plus_wire.bytes) / plus_wire.rounds;
      table.add_row({bench::fmt(static_cast<std::int64_t>(n)),
                     bench::fmt(static_cast<std::int64_t>(rounds)), "Pi (bare)",
                     bench::fmt(bare_wire.messages / bare_wire.rounds),
                     bench::fmt(bare_bpr), "-"});
      table.add_row({bench::fmt(static_cast<std::int64_t>(n)),
                     bench::fmt(static_cast<std::int64_t>(rounds)),
                     "Pi+ (compiled)",
                     bench::fmt(plus_wire.messages / plus_wire.rounds),
                     bench::fmt(plus_bpr),
                     bench::fmt((plus_bpr / bare_bpr - 1.0) * 100.0) + "%"});
    }
  }
  table.print();
}

struct AblationCell {
  int clean_runs = 0;       // runs whose trailing iterations are clean
  double mean_stab = -1;    // among clean runs
};

AblationCell run_ablation(int n, int f, CompilerOptions options, int seeds) {
  AblationCell cell;
  double total = 0;
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  for (int seed = 1; seed <= seeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 51 + n);
    SyncSimulator sim(SyncConfig{.seed = static_cast<std::uint64_t>(seed),
                                 .record_states = false},
                      compile_protocol(n, protocol, int_inputs(), options));
    // §2.4's "insidious problem": a faulty process whose round variable is
    // smaller than any correct process's and whose Π state is poisoned.
    // Being receive-deaf, it never adopts the agreed round, so it keeps
    // broadcasting out-of-date, poisoned messages forever; only the round
    // tags keep Π insulated from them.
    const ProcessId stale = n - 1;
    for (ProcessId p = 0; p < n; ++p) {
      Value evil;
      evil["c"] = Value(p == stale ? -1000 : rng.uniform(-50, 50));
      evil["s"] = Value::map(
          {{"vals", Value::array({Value(-rng.uniform(1000, 9999))})}});
      evil["suspect"] = random_value(rng, n);
      sim.corrupt_state(p, evil);
    }
    FaultPlan deaf;
    deaf.receive_omissions.push_back(OmissionRule{});
    sim.set_fault_plan(stale, deaf);
    sim.run_rounds(40);
    auto analysis =
        analyze_repeated(compiled_views(sim), sim.history().faulty(),
                         consensus_validity_any(int_inputs(), n));
    auto clean_from = analysis.clean_from(true);
    if (clean_from) {
      ++cell.clean_runs;
      total += static_cast<double>(*clean_from);
    }
  }
  if (cell.clean_runs > 0) cell.mean_stab = total / cell.clean_runs;
  return cell;
}

void print_ablation() {
  const int seeds = 10;
  bench::Table table(
      "EXP7b: ablation of the compiler's defenses with a stale poisoned "
      "faulty process present (n=6, f=2, 10 seeds)",
      {"round tags", "suspect filter", "recovered runs", "mean clean-from"});
  for (bool tags : {true, false}) {
    for (bool suspect : {true, false}) {
      CompilerOptions options;
      options.use_round_tags = tags;
      options.use_suspect_filter = suspect;
      AblationCell cell = run_ablation(6, 2, options, seeds);
      table.add_row({tags ? "on" : "OFF", suspect ? "on" : "OFF",
                     bench::fmt(static_cast<std::int64_t>(cell.clean_runs)) +
                         "/" + bench::fmt(static_cast<std::int64_t>(seeds)),
                     cell.mean_stab < 0 ? "never" : bench::fmt(cell.mean_stab)});
    }
  }
  table.print();
  std::printf(
      "Expected shape: with round tags on, all runs recover quickly; with "
      "tags OFF the stale\nprocess's out-of-date poisoned messages reach Pi "
      "in every round and no run recovers.\n(The suspect filter alone cannot "
      "express this for union-monotone Pi like FloodSet --\nits role is "
      "intra-iteration persistence of the tag mismatch, measured here as the\n"
      "tags-on rows' equivalence.)\n");
}

// Tracing overhead on the round-agreement hot loop.  Arg encodes the sink:
// 0 = no sink attached (the production configuration — the kTraced=false
// run_rounds instantiation contains no emission code at all, so this must
// track the pre-trace-layer cost), 1 = trace tape rendered as JSONL, 2 =
// trace tape rendered as Chrome JSON, 3 = flight-recorder sink (one binary
// ring event per simulator event).  Compare arg 0 against arg 1/2/3 to see
// what each sink costs.
void BM_TracedRoundAgreement(benchmark::State& state) {
  const int n = 16;
  const int sink_kind = static_cast<int>(state.range(0));
  FlightRecorder::global().set_enabled(true);
  for (auto _ : state) {
    std::vector<std::unique_ptr<SyncProcess>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(std::make_unique<RoundAgreementProcess>(p));
    }
    SyncSimulator sim(SyncConfig{.seed = 1, .record_states = false},
                      std::move(procs));
    TraceTape tape;
    FlightTraceSink flight;
    if (sink_kind == 1 || sink_kind == 2) sim.set_trace_sink(&tape);
    if (sink_kind == 3) sim.set_trace_sink(&flight);
    sim.run_rounds(20);
    benchmark::DoNotOptimize(sim.history().length());
    if (sink_kind == 1) benchmark::DoNotOptimize(trace_to_jsonl(tape).size());
    if (sink_kind == 2) benchmark::DoNotOptimize(trace_to_chrome(tape).size());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_TracedRoundAgreement)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SnapshotBytes(benchmark::State& state) {
  auto protocol = std::make_shared<FloodSetConsensus>(3);
  CompiledProcess proc(0, 16, protocol, int_inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proc.snapshot_state().to_string().size());
  }
}
BENCHMARK(BM_SnapshotBytes);

}  // namespace
}  // namespace ftss

int main(int argc, char** argv) {
  ftss::bench::JsonEmitter json("overhead", &argc, argv);
  ftss::print_wire_overhead();
  ftss::print_ablation();
  benchmark::Initialize(&argc, argv);
  json.run_benchmarks();
  return json.finish();
}
