// EXP21 — the serving layer: what systemic failure and recovery look like
// to a client of the replicated KV service.
//
// Three tables, one claim each:
//   a. latency under faults: a {batch} × {no-fault, corruption-wave} grid.
//      A full-system corruption wave mid-run degrades p99 and dirties a
//      bounded prefix of the command log, but the service converges: the
//      survivor stores are byte-identical and a trailing clean suffix
//      exists (the paper's Σ⁺ stabilization claim, measured at the
//      service interface instead of the protocol interface);
//   b. batch-size sweep: consensus instance latency is flat in batch size,
//      so batching amortizes it — throughput scales with the batch until
//      the client population can no longer fill it;
//   c. load-generator scale: the closed-loop client population runs at
//      10⁵ clients (the ftss_svc CLI's design point) in one EventSimulator
//      with deterministic reports.
//
// google-benchmark timings cover the substrate operations the service hot
// path leans on: batch encode/decode and KvStore application, with and
// without the (client, seq) dedup floor, on one store and on five.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "svc/kv.h"
#include "svc/service.h"

namespace ftss {
namespace {

svc::SvcConfig base_config() {
  svc::SvcConfig config;
  config.n = 5;
  config.seed = 2101;
  config.clients = 2000;
  config.read_permille = 200;
  config.horizon = 20000;
  return config;
}

svc::SvcReport run_cell(svc::SvcConfig config) {
  svc::KvService service(std::move(config));
  service.run();
  return service.report();
}

// Completed requests per 1000 sim-time units.
std::int64_t throughput(const svc::SvcReport& r) {
  return r.ran_until > 0 ? r.requests_completed * 1000 / r.ran_until : 0;
}

// --- EXP21a: the latency-under-faults grid --------------------------------

void print_fault_grid(bench::JsonEmitter& json) {
  bench::Table table(
      "EXP21a: client-visible recovery from systemic corruption "
      "(n=5, 2000 closed-loop clients, horizon 20000, corruption wave at "
      "t=7000 + crash at t=12000; latency in sim-time units)",
      {"batch", "plan", "completed", "req/1000t", "p50", "p90", "p99",
       "dirty", "clean_from", "converged"});
  bool faulted_cells_converge = true;
  bool prefix_bounded = true;
  bool no_fault_clean = true;
  for (const std::int64_t batch : {1, 64, 1024}) {
    for (const bool faulted : {false, true}) {
      svc::SvcConfig config = base_config();
      config.batch = static_cast<int>(batch);
      if (faulted) {
        config.plan = svc::corruption_wave(config.n, 7000, 79);
        config.plan.crashes.push_back({4, 12000});
      }
      const svc::SvcReport r = run_cell(config);
      const bool converged = r.converged_full && r.converged_clean &&
                             r.clean_from.has_value();
      table.add_row(
          {bench::fmt(batch), faulted ? "wave+crash" : "none",
           bench::fmt(r.requests_completed), bench::fmt(throughput(r)),
           bench::fmt(r.latency_p50), bench::fmt(r.latency_p90),
           bench::fmt(r.latency_p99), bench::fmt(r.dirty_instances),
           r.clean_from ? bench::fmt(*r.clean_from) : "-",
           bench::pass(converged)});
      if (faulted) {
        faulted_cells_converge &= converged && r.requests_completed > 0;
        // The corrupted-command prefix stays a bounded slice of the log.
        prefix_bounded &=
            r.dirty_instances < std::max<std::int64_t>(
                                    r.instances_decided / 4, 8);
      } else {
        no_fault_clean &= converged && r.dirty_instances == 0 &&
                          r.requests_completed > 0;
      }
    }
  }
  table.print();
  std::printf(
      "A corruption wave scrambles every replica's consensus + detector "
      "state mid-run.\nClients see a latency spike and a bounded dirty "
      "prefix; the decision log then\nre-stabilizes and survivor stores "
      "converge byte-identically.\n");
  json.add_check("exp21a_no_fault_cells_clean", no_fault_clean);
  json.add_check("exp21a_faulted_cells_converge", faulted_cells_converge);
  json.add_check("exp21a_corrupted_prefix_bounded", prefix_bounded);
}

// --- EXP21b: batch-size sweep ---------------------------------------------

void print_batch_sweep(bench::JsonEmitter& json) {
  bench::Table table(
      "EXP21b: batching amortizes consensus instance latency "
      "(n=5, 2000 clients, no faults)",
      {"batch", "completed", "req/1000t", "p50", "p99", "instances",
       "cmds/instance"});
  std::int64_t tp_batch1 = 0, tp_batch64 = 0;
  for (const std::int64_t batch : {1, 4, 16, 64, 256, 1024}) {
    svc::SvcConfig config = base_config();
    config.batch = static_cast<int>(batch);
    const svc::SvcReport r = run_cell(config);
    const std::int64_t nonempty = r.instances_decided - r.instances_empty;
    table.add_row(
        {bench::fmt(batch), bench::fmt(r.requests_completed),
         bench::fmt(throughput(r)), bench::fmt(r.latency_p50),
         bench::fmt(r.latency_p99), bench::fmt(r.instances_decided),
         nonempty > 0 ? bench::fmt(static_cast<double>(r.commands_decided) /
                                   static_cast<double>(nonempty))
                      : "-"});
    if (batch == 1) tp_batch1 = throughput(r);
    if (batch == 64) tp_batch64 = throughput(r);
  }
  table.print();
  std::printf(
      "One consensus instance costs the same wall of message delays no "
      "matter how many\ncommands ride in it, so throughput scales with the "
      "batch until the client\npopulation can no longer fill it.\n");
  json.add_check("exp21b_batching_beats_single_command",
                 tp_batch64 > 4 * tp_batch1);
}

// --- EXP21c: load-generator scale -----------------------------------------

void print_scale(bench::JsonEmitter& json) {
  bench::Table table(
      "EXP21c: closed-loop load generator scale (batch=1024, horizon "
      "12000)",
      {"clients", "submitted", "completed", "req/1000t", "p50", "p99",
       "converged"});
  bool scale_ok = true;
  for (const std::int64_t clients : {1000, 10000, 100000}) {
    svc::SvcConfig config = base_config();
    config.batch = 1024;
    config.clients = clients;
    config.horizon = 12000;
    const svc::SvcReport r = run_cell(config);
    const bool converged = r.converged_full && r.clean_from.has_value();
    table.add_row({bench::fmt(clients), bench::fmt(r.requests_submitted),
                   bench::fmt(r.requests_completed),
                   bench::fmt(throughput(r)), bench::fmt(r.latency_p50),
                   bench::fmt(r.latency_p99), bench::pass(converged)});
    if (clients == 100000) {
      scale_ok = converged && r.requests_completed > 100000;
    }
  }
  table.print();
  json.add_check("exp21c_100k_clients_served", scale_ok);
}

// --- substrate timings ----------------------------------------------------

void BM_EncodeBatch(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  std::vector<svc::Command> commands;
  for (std::int64_t i = 0; i < batch; ++i) {
    commands.push_back({"k" + std::to_string(i % 64), Value(i), i % 7, i});
  }
  for (auto _ : state) {
    Value v = svc::encode_batch(commands);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EncodeBatch)->Arg(1)->Arg(64)->Arg(1024);

void BM_KvApplyDecision(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  std::vector<svc::Command> commands;
  for (std::int64_t i = 0; i < batch; ++i) {
    // Anonymous commands: every apply mutates (no dedup short-circuit).
    commands.push_back({"k" + std::to_string(i % 64), Value(i)});
  }
  const Value decision = svc::encode_batch(commands);
  svc::KvStore store;
  std::int64_t applied = 0;
  for (auto _ : state) {
    applied += store.apply_decision(decision).applied;
  }
  benchmark::DoNotOptimize(applied);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_KvApplyDecision)->Arg(1)->Arg(64)->Arg(1024);

// The same apply with every command carrying (client, seq), so each one
// passes the dedup floor: 20 000 clients in a scattered order, each client's
// seqs ascending, applied batch by batch to fresh stores per pass (the
// access pattern of a svc replica and of report()'s clean-suffix rebuild).
// The second argument is the number of stores: each batch is decoded once
// and applied to every store in turn, as KvService::apply_decided does, so
// five stores' floors (512 KB each) compete for cache where one fits in L2.
// Items are command applications: 40 960 per store.
void BM_KvApplyDecisionClients(benchmark::State& state) {
  constexpr std::int64_t kClients = 20000;
  constexpr std::int64_t kCommands = 40960;  // a multiple of every batch arg
  const std::int64_t batch = state.range(0);
  const std::int64_t stores = state.range(1);
  std::vector<Value> decisions;
  std::vector<svc::Command> commands;
  for (std::int64_t i = 0; i < kCommands; ++i) {
    // 7919 is coprime to 20 000: each run of 20 000 commands visits every
    // client once.
    const std::int64_t client = (i * 7919) % kClients;
    commands.push_back(
        {"k" + std::to_string(i % 64), Value(i), client, i / kClients});
    if (static_cast<std::int64_t>(commands.size()) == batch) {
      decisions.push_back(svc::encode_batch(commands));
      commands.clear();
    }
  }
  std::int64_t applied = 0;
  for (auto _ : state) {
    std::vector<svc::KvStore> replicas(stores);
    for (const Value& decision : decisions) {
      const svc::KvStore::Batch decoded = svc::KvStore::decode_batch(decision);
      for (svc::KvStore& store : replicas) {
        applied += store.apply(decoded).applied;
      }
    }
  }
  benchmark::DoNotOptimize(applied);
  state.SetItemsProcessed(state.iterations() * kCommands * stores);
}
BENCHMARK(BM_KvApplyDecisionClients)->ArgsProduct({{1, 64, 1024}, {1, 5}});

void BM_SvcSmallRun(benchmark::State& state) {
  for (auto _ : state) {
    svc::SvcConfig config = base_config();
    config.clients = 200;
    config.horizon = 6000;
    svc::KvService service(std::move(config));
    service.run();
    benchmark::DoNotOptimize(service.report().requests_completed);
  }
}
BENCHMARK(BM_SvcSmallRun)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftss

int main(int argc, char** argv) {
  ftss::bench::JsonEmitter json("svc", &argc, argv);
  ftss::print_fault_grid(json);
  ftss::print_batch_sweep(json);
  ftss::print_scale(json);
  benchmark::Initialize(&argc, argv);
  json.run_benchmarks();
  return json.finish();
}
