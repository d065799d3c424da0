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
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

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

// The one printer for both replay legs: the sync and replayed histories'
// fingerprints, the sync label padded to the leg's; then `traffic`, what
// only that leg measures; then the leg's findings (replay_findings).  Any
// finding writes the failure dump named `dump_stem`: exit 1.
template <typename Leg>
int print_leg(const Leg& leg, const ftss::History& replayed,
              const std::string& label, const std::function<void()>& traffic,
              const char* dump_stem, const std::string& dump_dir,
              const ftss::MetricsSnapshot* timing) {
  if (!leg.supported) {
    std::cout << "unsupported: " << leg.unsupported_reason << "\n";
    return 2;
  }
  const std::string sync_label = "sync" + std::string(label.size() - 4, ' ');
  std::cout << std::hex << std::setfill('0');
  std::cout << sync_label << " fingerprint: 0x" << std::setw(16)
            << ftss::history_fingerprint(leg.sync_history) << "\n";
  std::cout << label << " fingerprint: 0x" << std::setw(16)
            << ftss::history_fingerprint(replayed) << "\n";
  std::cout << std::dec << std::setfill(' ');
  traffic();
  const std::vector<ftss::Divergence> findings =
      ftss::replay_findings(leg.notes, leg.sync_history, replayed);
  for (const ftss::Divergence& d : findings) {
    std::cout << ftss::describe(d) << "\n";
  }
  if (!findings.empty()) {
    ftss::report_failure_dump(dump_dir, dump_stem, timing);
  }
  return findings.empty() ? 0 : 1;
}

int lockstep(const ftss::TrialPlan& plan, const std::string& dump_dir) {
  const ftss::LockstepResult leg = ftss::run_lockstep_trial(plan);
  return print_leg(leg, leg.event_history, "event", [] {},
                   "ftss_conform_lockstep_failure", dump_dir, nullptr);
}

int transport(const ftss::TrialPlan& plan, const std::string& dump_dir) {
  const ftss::TransportResult leg = ftss::run_transport_trial(plan);
  const auto traffic = [&leg] {
    std::cout << "wire: " << leg.frames_sent << " frames, " << leg.bytes_sent
              << " bytes\n";
    // Wall-clock figures differ on every run, so they stay off stdout.
    for (const char* name : {"hub_round_ns", "wire_encode_ns",
                             "wire_decode_ns", "transport_trial_ns"}) {
      const auto it = leg.timing.histograms.find(name);
      if (it == leg.timing.histograms.end() || it->second.count == 0) {
        continue;
      }
      const ftss::HistogramData& h = it->second;
      std::cerr << name << ": n=" << h.count
                << " p50=" << h.percentile_upper(50)
                << " p90=" << h.percentile_upper(90)
                << " p99=" << h.percentile_upper(99) << " max=" << h.max
                << "\n";
    }
  };
  return print_leg(leg, leg.transport_history, "transport", traffic,
                   "ftss_conform_transport_failure", dump_dir, &leg.timing);
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
