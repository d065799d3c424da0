// ftss_conform: cross-simulator conformance sweep CLI.
//
//   ftss_conform --trials 240 --seed 42     run the standard sweep
//   ftss_conform --replay plan.json         run every oracle on one plan
//   ftss_conform --lockstep plan.json       print both legs' fingerprints
//   ftss_conform --transport plan.json      run the socket transport leg,
//                                           print fingerprints + wire stats
//                                           (latency percentiles: stderr)
//
// Exit code: 0 iff no oracle diverged on any trial.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "conform/batching.h"
#include "conform/conform.h"
#include "obs/flight.h"
#include "sim/simulator.h"
#include "util/cli.h"

namespace {

constexpr char kTool[] = "ftss_conform";

void usage() {
  std::cerr << "usage: ftss_conform [options]\n"
               "  --trials N       number of sampled plans (default 240)\n"
               "  --seed S         run seed (default 42)\n"
               "  --jobs J         worker threads (default: hardware)\n"
               "  --sim-threads K  lanes per simulated round (default 1;\n"
               "                   also $FTSS_SIM_THREADS); byte-identical\n"
               "                   output for any K, traced legs included;\n"
               "                   with --jobs > 1 lanes run inline, so\n"
               "                   pair with --jobs 1 for concurrent lanes\n"
               "  --no-shrink      report divergent plans without shrinking\n"
               "  --max-failures K divergent plans to keep (default 3)\n"
               "  --svc-batching   run the serving-layer batching-\n"
               "                   transparency sweep instead (batch=1 vs\n"
               "                   batch=k final stores; --trials workloads)\n"
               "  --replay FILE    run the oracle battery on one plan JSON\n"
               "  --lockstep FILE  run only the differential leg, print both\n"
               "                   history fingerprints\n"
               "  --transport FILE run only the socket transport leg, print\n"
               "                   fingerprints and wire traffic (wall-clock\n"
               "                   latency percentiles go to stderr)\n"
               "  --dump-dir D     where failure artifacts (.flight dumps)\n"
               "                   land (default $FTSS_DUMP_DIR, else \".\");\n"
               "                   decode with ftss_trace --flight\n";
}

int replay(const ftss::TrialPlan& plan, const std::string& dump_dir) {
  std::cout << plan.describe();
  bool diverged = false;
  for (const ftss::OracleResult& r : ftss::run_conformance(plan)) {
    std::cout << r.describe() << "\n";
    if (r.applicable && !r.ok()) diverged = true;
  }
  std::cout << (diverged ? "DIVERGED\n" : "CONFORMS\n");
  if (diverged) {
    ftss::report_failure_dump(dump_dir, "ftss_conform_replay_failure",
                              nullptr);
  }
  return diverged ? 1 : 0;
}

int lockstep(const ftss::TrialPlan& plan, const std::string& dump_dir) {
  const ftss::LockstepResult result = ftss::run_lockstep_trial(plan);
  if (!result.supported) {
    std::cout << "unsupported: " << result.unsupported_reason << "\n";
    return 2;
  }
  std::cout << std::hex << std::setfill('0');
  std::cout << "sync  fingerprint: 0x" << std::setw(16)
            << result.sync_fingerprint << "\n";
  std::cout << "event fingerprint: 0x" << std::setw(16)
            << result.event_fingerprint << "\n";
  std::cout << std::dec << std::setfill(' ');
  for (const ftss::Divergence& d : result.divergences) {
    std::cout << ftss::describe(d) << "\n";
  }
  if (!result.divergences.empty()) {
    ftss::report_failure_dump(dump_dir, "ftss_conform_lockstep_failure",
                              nullptr);
  }
  return result.divergences.empty() ? 0 : 1;
}

int transport(const ftss::TrialPlan& plan, const std::string& dump_dir) {
  const ftss::TransportResult result = ftss::run_transport_trial(plan);
  if (!result.supported) {
    std::cout << "unsupported: " << result.unsupported_reason << "\n";
    return 2;
  }
  std::cout << std::hex << std::setfill('0');
  std::cout << "sync      fingerprint: 0x" << std::setw(16)
            << ftss::history_fingerprint(result.sync_history) << "\n";
  std::cout << "transport fingerprint: 0x" << std::setw(16)
            << ftss::history_fingerprint(result.transport_history) << "\n";
  std::cout << std::dec << std::setfill(' ');
  std::cout << "wire: " << result.frames_sent << " frames, "
            << result.bytes_sent << " bytes\n";
  // Wall-clock figures differ on every run, so they stay off stdout.
  for (const char* name : {"hub_round_ns", "wire_encode_ns",
                           "wire_decode_ns", "transport_trial_ns"}) {
    const auto it = result.timing.histograms.find(name);
    if (it == result.timing.histograms.end() || it->second.count == 0) {
      continue;
    }
    const ftss::HistogramData& h = it->second;
    std::cerr << name << ": n=" << h.count << " p50=" << h.percentile_upper(50)
              << " p90=" << h.percentile_upper(90)
              << " p99=" << h.percentile_upper(99) << " max=" << h.max << "\n";
  }
  bool diverged = false;
  for (const ftss::Divergence& d : result.notes) {
    std::cout << ftss::describe(d) << "\n";
    diverged = true;
  }
  for (const ftss::Divergence& d : ftss::diff_histories(
           result.sync_history, result.transport_history)) {
    std::cout << ftss::describe(d) << "\n";
    diverged = true;
  }
  if (diverged) {
    ftss::report_failure_dump(dump_dir, "ftss_conform_transport_failure",
                              &result.timing);
  }
  return diverged ? 1 : 0;
}

// Runs `mode` on the plan in the file at `path`; exit status 2 if there is
// no plan to run.
int run_plan_file(const std::string& path, const std::string& dump_dir,
                  int (*mode)(const ftss::TrialPlan&, const std::string&)) {
  std::string error;
  const auto plan = ftss::load_plan_file(path, &error);
  if (!plan) {
    std::cerr << kTool << ": " << error << "\n";
    return 2;
  }
  return mode(*plan, dump_dir);
}

}  // namespace

int main(int argc, char** argv) {
  ftss::ConformConfig config;
  std::optional<int> trials;  // unset: each sweep keeps its own default
  bool svc_batching = false;
  std::string replay_path;
  std::string lockstep_path;
  std::string transport_path;
  std::string dump_dir;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

  ftss::FlagReader flags(kTool, argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--trials") {
      trials = flags.number(0, kMaxInt);
    } else if (arg == "--seed") {
      config.seed = flags.number(std::uint64_t{0}, kMaxSeed);
    } else if (arg == "--jobs" || arg == "--threads") {
      config.jobs = flags.number(0u, kMaxUnsigned);
    } else if (arg == "--sim-threads") {
      ftss::set_sim_threads_default(flags.number(0u, kMaxUnsigned));
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--max-failures") {
      config.max_failures = flags.number(0, kMaxInt);
    } else if (arg == "--svc-batching") {
      svc_batching = true;
    } else if (arg == "--replay") {
      replay_path = flags.value();
    } else if (arg == "--lockstep") {
      lockstep_path = flags.value();
    } else if (arg == "--transport") {
      transport_path = flags.value();
    } else if (arg == "--dump-dir") {
      dump_dir = flags.value();
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (!replay_path.empty()) {
    return run_plan_file(replay_path, dump_dir, replay);
  }
  if (!lockstep_path.empty()) {
    return run_plan_file(lockstep_path, dump_dir, lockstep);
  }
  if (!transport_path.empty()) {
    return run_plan_file(transport_path, dump_dir, transport);
  }

  if (svc_batching) {
    ftss::BatchingOracleConfig batching;
    batching.seed = config.seed;
    batching.trials = trials.value_or(batching.trials);
    batching.jobs = config.jobs;
    const ftss::BatchingOracleReport report =
        ftss::svc_batching_sweep(batching);
    std::cout << report.summary();
    return report.ok() ? 0 : 1;
  }

  config.trials = trials.value_or(config.trials);
  const ftss::ConformReport report = ftss::conform_sweep(config);
  std::cout << report.summary();
  if (!report.ok()) {
    ftss::report_failure_dump(dump_dir, "ftss_conform_failure", nullptr);
  }
  return report.ok() ? 0 : 1;
}
