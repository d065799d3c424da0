// ftss_svc: deterministic closed-loop load generator for the replicated-KV
// serving stack.
//
//   ftss_svc --clients 100000 --batch 256           one big cell, summary
//   ftss_svc --plan wave --corrupt-at 8000          systemic failure mid-run
//   ftss_svc --plans 20 --jobs 8                    EXP21 fault-plan grid
//   ftss_svc --json out.json --metrics-out m.json   machine-readable output
//
// Every run is a pure function of (--seed, flags): the report fingerprint is
// stable across machines and --jobs values (grid cells are independent
// services fanned out with parallel_sweep, folded in plan order).
//
// Exit code: 0 iff every cell converged (survivor stores identical, clean
// suffix present) and completed requests.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "svc/service.h"
#include "util/cli.h"
#include "util/numeric.h"
#include "util/parallel.h"

namespace {

using namespace ftss;
using namespace ftss::svc;

constexpr char kTool[] = "ftss_svc";

void usage() {
  std::cerr
      << "usage: ftss_svc [options]\n"
         "  --n N            replicas (default 5)\n"
         "  --seed S         base seed (default 42)\n"
         "  --batch B        commands per consensus instance (default 64)\n"
         "  --pipeline D     in-flight instance window (default 32)\n"
         "  --clients C      closed-loop client population (default 1000)\n"
         "  --reads PM       reads per mille of ops (default 0)\n"
         "  --horizon T      sim-time horizon per cell (default 30000)\n"
         "  --lease T        read-lease staleness bound (default 1500)\n"
         "  --plan P         none|sampled|wave (default none)\n"
         "  --corrupt-at T   wave corruption time (default horizon/4)\n"
         "  --plans K        grid: K explorer-sampled fault plans, seeds\n"
         "                   base+1..base+K (scaled by $FTSS_TRIALS_SCALE)\n"
         "  --jobs J         grid worker threads (default: hardware)\n"
         "  --json F         write the ftss-svc-v1 report JSON\n"
         "  --metrics-out F  write the merged metrics snapshot JSON\n"
         "  --quiet          suppress per-cell lines\n";
}

constexpr int kMaxInt = std::numeric_limits<int>::max();

// $FTSS_TRIALS_SCALE as an integer in [1, INT_MAX], 1 when unset; nullopt
// after a one-line error when it is anything else.
std::optional<int> trial_scale() {
  const char* env = std::getenv("FTSS_TRIALS_SCALE");
  if (env == nullptr) return 1;
  const std::optional<int> scale = parse_integer(env, 1, kMaxInt);
  if (!scale) {
    std::cerr << kTool << ": FTSS_TRIALS_SCALE needs an integer in [1, "
              << kMaxInt << "], got '" << env << "'\n";
  }
  return scale;
}

std::string hex_fp(std::uint64_t fp) {
  std::ostringstream out;
  out << "0x" << std::hex << fp;
  return out.str();
}

struct Cell {
  std::uint64_t plan_seed = 0;
  SvcReport report;
  std::string plan_describe;
};

}  // namespace

int main(int argc, char** argv) {
  SvcConfig base;
  base.seed = 42;
  std::string plan_kind = "none";
  Time corrupt_at = 0;
  int plans = 0;
  unsigned jobs = 0;
  std::string json_path, metrics_path;
  bool quiet = false;
  constexpr unsigned kMaxU = std::numeric_limits<unsigned>::max();
  constexpr std::int64_t kZero = 0;
  constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();
  // Requests carry 32 bits of client id (svc/service.cc pack_request), so
  // ids 0 .. 2^32 - 1 are all the service can tell apart.
  constexpr std::int64_t kMaxClients = std::int64_t{1} << 32;
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

  FlagReader flags(kTool, argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--n") base.n = flags.number(1, kMaxInt);
    else if (arg == "--seed")
      base.seed = flags.number(std::uint64_t{0}, kMaxSeed);
    else if (arg == "--batch") base.batch = flags.number(1, kMaxInt);
    else if (arg == "--pipeline")
      base.pipeline_depth = flags.number(kZero, kMax64);
    else if (arg == "--clients")
      base.clients = flags.number(kZero, kMaxClients);
    else if (arg == "--reads") base.read_permille = flags.number(0, 1000);
    else if (arg == "--horizon") base.horizon = flags.number(kZero, kMax64);
    else if (arg == "--lease") base.lease_bound = flags.number(kZero, kMax64);
    else if (arg == "--plan") plan_kind = flags.value();
    else if (arg == "--corrupt-at") corrupt_at = flags.number(kZero, kMax64);
    else if (arg == "--plans") plans = flags.number(0, kMaxInt);
    else if (arg == "--jobs" || arg == "--threads")
      jobs = flags.number(0u, kMaxU);
    else if (arg == "--json") json_path = flags.value();
    else if (arg == "--metrics-out") metrics_path = flags.value();
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "ftss_svc: unknown flag " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (plan_kind != "none" && plan_kind != "sampled" && plan_kind != "wave") {
    std::cerr << "ftss_svc: bad --plan " << plan_kind << "\n";
    return 2;
  }

  // Build the cell list: one cell, or a grid of sampled plans.
  std::vector<std::uint64_t> plan_seeds;
  if (plans > 0) {
    const std::optional<int> scale = trial_scale();
    if (!scale) return 2;
    const std::int64_t total = std::int64_t{plans} * *scale;
    if (total > kMaxInt) {
      std::cerr << kTool << ": --plans " << plans << " times FTSS_TRIALS_SCALE "
                << *scale << " exceeds " << kMaxInt << " cells\n";
      return 2;
    }
    for (std::int64_t k = 1; k <= total; ++k) {
      plan_seeds.push_back(base.seed + k);
    }
  } else {
    plan_seeds.push_back(base.seed);
  }

  auto run_cell = [&](std::size_t idx) {
    SvcConfig config = base;
    Cell cell;
    cell.plan_seed = plan_seeds[idx];
    if (plans > 0 || plan_kind == "sampled") {
      config.plan = sample_svc_plan(cell.plan_seed, config.n, config.horizon);
    } else if (plan_kind == "wave") {
      const Time at = corrupt_at > 0 ? corrupt_at : config.horizon / 4;
      config.plan = corruption_wave(config.n, at, cell.plan_seed);
    }
    cell.plan_describe = config.plan.describe();
    KvService service(std::move(config));
    service.run();
    cell.report = service.report();
    return cell;
  };

  const std::vector<Cell> cells =
      parallel_sweep<Cell>(plan_seeds.size(), run_cell, jobs);

  // Deterministic fold: fingerprints chain in plan order, metrics merge.
  std::uint64_t grid_fp = 0xcbf29ce484222325ULL;
  MetricsSnapshot merged;
  bool all_ok = true;
  std::int64_t completed = 0, submitted = 0;
  for (const Cell& cell : cells) {
    grid_fp = (grid_fp ^ cell.report.fingerprint()) * 0x100000001b3ULL;
    merged.merge(cell.report.metrics);
    completed += cell.report.requests_completed;
    submitted += cell.report.requests_submitted;
    const bool ok = cell.report.converged_full &&
                    cell.report.clean_from.has_value() &&
                    cell.report.requests_completed > 0;
    all_ok = all_ok && ok;
    if (!quiet) {
      std::cout << "plan seed " << cell.plan_seed << " [" << cell.plan_describe
                << "]: " << cell.report.summary() << (ok ? "" : "  <-- BAD")
                << "\n";
    }
  }

  const double horizon_time =
      static_cast<double>(base.horizon) * static_cast<double>(cells.size());
  std::cout << "cells " << cells.size() << "; requests " << completed << "/"
            << submitted << " completed; throughput "
            << (horizon_time > 0
                    ? static_cast<std::int64_t>(
                          static_cast<double>(completed) * 1000.0 /
                          horizon_time)
                    : 0)
            << " req/1000t; grid fingerprint " << hex_fp(grid_fp) << "\n";

  if (!json_path.empty()) {
    Value doc;
    doc["schema"] = Value("ftss-svc-v1");
    doc["seed"] = Value(static_cast<std::int64_t>(base.seed));
    doc["cells"] = Value(static_cast<std::int64_t>(cells.size()));
    doc["fingerprint"] = Value(hex_fp(grid_fp));
    Value::Array reports;
    for (const Cell& cell : cells) {
      Value entry = cell.report.to_value();
      entry["plan_seed"] = Value(static_cast<std::int64_t>(cell.plan_seed));
      entry["plan"] = Value(cell.plan_describe);
      reports.push_back(std::move(entry));
    }
    doc["reports"] = Value(std::move(reports));
    if (!write_file(kTool, json_path, doc.to_string() + "\n")) return 2;
  }
  if (!metrics_path.empty() &&
      !write_file(kTool, metrics_path,
                  merged.document().to_string() + "\n")) {
    return 2;
  }
  return all_ok ? 0 : 1;
}
