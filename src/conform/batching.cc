#include "conform/batching.h"

#include <sstream>

#include "svc/service.h"
#include "util/fnv.h"
#include "util/parallel.h"

namespace ftss {

namespace {

// The shared workload: open loop + bounded ops + drain, so both legs submit
// the identical command sequence and decide all of it.
svc::SvcConfig workload_config(std::uint64_t seed, int batch) {
  svc::SvcConfig config;
  config.n = 3;
  config.seed = seed;
  config.batch = batch;
  config.pipeline_depth = 64;
  config.clients = 32;
  config.max_ops_per_client = 5;
  config.closed_loop = false;
  config.think_min = 40;
  config.think_max = 400;
  config.arrival_spread = 1000;
  config.keyspace = 24;
  config.horizon = 8000;
  config.drain_cap = 40000;
  return config;
}

struct Leg {
  std::uint64_t store_fp = 0;
  std::int64_t applied = 0;
  std::int64_t deduped = 0;
  std::int64_t garbage = 0;
  std::int64_t submitted = 0;
  bool drained = false;
  bool converged = false;
};

Leg run_leg(std::uint64_t seed, int batch,
            const std::function<Value(const Value&)>& sabotage) {
  svc::SvcConfig config = workload_config(seed, batch);
  config.decision_transform = sabotage;
  svc::KvService service(std::move(config));
  service.run();
  const svc::SvcReport report = service.report();
  Leg leg;
  leg.drained = report.drained;
  leg.converged = report.converged_full;
  leg.store_fp = report.store_fingerprint;
  leg.submitted = report.requests_submitted;
  const svc::KvStore& store = service.store(0);
  leg.applied = store.applied_total();
  leg.deduped = store.deduped_total();
  leg.garbage = store.garbage_total();
  return leg;
}

}  // namespace

BatchingCellResult check_batching(
    std::uint64_t workload_seed, int batch,
    const std::function<Value(const Value&)>& sabotage) {
  const Leg base = run_leg(workload_seed, 1, nullptr);
  const Leg batched = run_leg(workload_seed, batch, sabotage);
  BatchingCellResult cell;
  cell.workload_seed = workload_seed;
  cell.batch = batch;
  // The sabotaged leg may fail to drain (dropped commands never complete);
  // that is itself a detectable violation, not a precondition failure, so
  // only the clean leg gates the precondition.
  cell.drained = base.drained && base.converged && batched.converged;
  cell.stores_equal = base.store_fp == batched.store_fp && batched.drained;
  cell.totals_equal = base.applied == batched.applied &&
                      base.deduped == batched.deduped &&
                      base.garbage == batched.garbage &&
                      base.submitted == batched.submitted;
  cell.store_fp_batch1 = base.store_fp;
  cell.store_fp_batchk = batched.store_fp;
  cell.commands = base.submitted;
  return cell;
}

std::string BatchingCellResult::describe() const {
  std::ostringstream out;
  out << "seed " << workload_seed << " batch 1 vs " << batch << ": "
      << (ok() ? "transparent" : "DIVERGED");
  if (!drained) out << " [leg failed to drain/converge]";
  if (!stores_equal) {
    out << " [stores 0x" << std::hex << store_fp_batch1 << " != 0x"
        << store_fp_batchk << std::dec << "]";
  }
  if (!totals_equal) out << " [apply totals differ]";
  return out.str();
}

BatchingOracleReport svc_batching_sweep(const BatchingOracleConfig& config) {
  BatchingOracleReport report;
  report.trials = config.trials;
  const std::size_t cells =
      static_cast<std::size_t>(config.trials) * config.batches.size();
  const std::vector<BatchingCellResult> results =
      parallel_sweep<BatchingCellResult>(
          cells,
          [&](std::size_t i) {
            const std::size_t trial = i / config.batches.size();
            const int batch = config.batches[i % config.batches.size()];
            return check_batching(config.seed + trial, batch, config.sabotage);
          },
          config.jobs);

  std::uint64_t fp = kFnv1aBasis;
  for (const BatchingCellResult& cell : results) {
    ++report.cells;
    fp = fnv1a_u64(fp, cell.workload_seed);
    fp = fnv1a_u64(fp, static_cast<std::uint64_t>(cell.batch));
    fp = fnv1a_u64(fp, cell.store_fp_batch1);
    fp = fnv1a_u64(fp, cell.store_fp_batchk);
    fp = fnv1a_u64(fp, static_cast<std::uint64_t>(cell.commands));
    fp = fnv1a_u64(fp, cell.ok() ? 1 : 0);
    if (!cell.ok()) {
      ++report.mismatches;
      if (report.failures.size() < 5) report.failures.push_back(cell);
    }
  }
  report.fingerprint = fp;
  return report;
}

std::string BatchingOracleReport::summary() const {
  std::ostringstream out;
  out << "svc-batching: " << cells << " cells over " << trials
      << " workloads, " << mismatches << " divergent\n";
  for (const BatchingCellResult& cell : failures) {
    out << "  " << cell.describe() << "\n";
  }
  out << "fingerprint: 0x" << std::hex << fingerprint << std::dec << "\n";
  return out.str();
}

Value sabotage_drop_last(const Value& decision) {
  if (!decision.is_array() || decision.as_array().size() < 2) return decision;
  Value::Array trimmed = decision.as_array();
  trimmed.pop_back();
  return Value(std::move(trimmed));
}

}  // namespace ftss
