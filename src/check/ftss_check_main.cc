// ftss_check: property-based adversary explorer CLI.
//
//   ftss_check --trials 1000 --seed 42          explore the real protocols
//   ftss_check --weakened ra-max                validate the oracles' teeth
//   ftss_check --replay plan.json               re-run one saved plan
//   ftss_check --dump-trial 17 --seed 42        print the 17th sampled plan
//
// A replayed plan's event trace, happened-before DAG and history table
// come from ftss_trace --plan plan.json, the one replay-trace writer.
//
// Exit code: with --weakened none (the default), 0 iff no trial violated an
// oracle; with a weakened protocol selected, 0 iff the explorer *caught* it
// (failing to catch a planted bug is the failure).  --replay exits 0 iff the
// replayed plan passes.
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "check/explorer.h"
#include "obs/flight.h"
#include "util/cli.h"

namespace {

constexpr char kTool[] = "ftss_check";

void usage() {
  std::cerr
      << "usage: ftss_check [options]\n"
         "  --trials N       number of trials (default 1000)\n"
         "  --seed S         run seed (default 42)\n"
         "  --jobs J         worker threads (default: hardware)\n"
         "  --threads J      alias for --jobs\n"
         "  --sim-threads K  lanes per simulated round (default 1; also\n"
         "                   $FTSS_SIM_THREADS).  Byte-identical output for\n"
         "                   any K, traced or not; with --jobs > 1 each sim\n"
         "                   runs its lanes inline on its sweep thread, so\n"
         "                   pair K>1 with --jobs 1 for concurrent lanes\n"
         "  --mode M         all|sync|jitter|compiled (default all)\n"
         "  --weakened W     none|ra-max|no-tags (default none)\n"
         "  --no-shrink      report failures without shrinking\n"
         "  --max-failures K failures to keep and shrink (default 5)\n"
         "  --replay FILE    run one plan from a JSON file and exit\n"
         "  --dump-trial I   print the I-th sampled plan and exit\n"
         "  --metrics-out F  write the aggregated metrics snapshot as JSON\n"
         "                   (\"metrics\" is deterministic: identical for any\n"
         "                   --threads; wall-clock data rides in \"timing\")\n"
         "  --dump-dir D     where failure artifacts (.flight + metrics)\n"
         "                   land (default $FTSS_DUMP_DIR, else \".\");\n"
         "                   decode with ftss_trace --flight\n";
}

// The metrics snapshot's ftss-metrics-v1 document for a run of `trials`
// trials under `run_seed`.
std::string metrics_json(const ftss::MetricsSnapshot& metrics,
                         std::uint64_t run_seed, int trials) {
  ftss::Value doc = metrics.document();
  doc["seed"] = ftss::Value(static_cast<std::int64_t>(run_seed));
  doc["trials"] = ftss::Value(trials);
  return doc.to_string() + "\n";
}

int replay(const std::string& path, const std::string& metrics_path,
           const std::string& dump_dir) {
  std::string error;
  const auto plan = ftss::load_plan_file(path, &error);
  if (!plan) {
    std::cerr << kTool << ": " << error << "\n";
    return 2;
  }
  std::cout << plan->describe();

  const ftss::TrialResult result = ftss::run_trial(*plan);
  if (!metrics_path.empty() &&
      !ftss::write_file(kTool, metrics_path,
                        metrics_json(result.metrics, plan->trial_seed, 1))) {
    return 2;
  }
  if (result.evaluation.ok()) {
    std::cout << "PASS";
    if (result.evaluation.stabilization) {
      std::cout << " (stabilization " << *result.evaluation.stabilization
                << "/" << result.evaluation.bound << ")";
    }
    std::cout << "\n";
    return 0;
  }
  std::cout << "FAIL\n" << result.evaluation.describe();
  ftss::report_failure_dump(dump_dir, "ftss_check_replay_failure",
                            &result.metrics);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ftss::ExplorerConfig config;
  std::string replay_path;
  std::string metrics_path;
  std::string dump_dir;
  int dump_trial = -1;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

  ftss::FlagReader flags(kTool, argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--trials") {
      config.trials = flags.number(0, kMaxInt);
    } else if (arg == "--seed") {
      config.seed = flags.number(std::uint64_t{0}, kMaxSeed);
    } else if (arg == "--jobs" || arg == "--threads") {
      config.jobs = flags.number(0u, kMaxUnsigned);
    } else if (arg == "--sim-threads") {
      ftss::set_sim_threads_default(flags.number(0u, kMaxUnsigned));
    } else if (arg == "--mode") {
      const std::string m = flags.value();
      config.adversary.allow_sync = m == "all" || m == "sync";
      config.adversary.allow_jitter = m == "all" || m == "jitter";
      config.adversary.allow_compiled = m == "all" || m == "compiled";
      if (!config.adversary.allow_sync && !config.adversary.allow_jitter &&
          !config.adversary.allow_compiled) {
        std::cerr << "ftss_check: unknown --mode " << m << "\n";
        return 2;
      }
    } else if (arg == "--weakened") {
      const auto w = ftss::parse_weakened_kind(flags.value());
      if (!w) {
        std::cerr << "ftss_check: unknown --weakened kind\n";
        return 2;
      }
      config.weakened = *w;
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--max-failures") {
      config.max_failures = flags.number(0, kMaxInt);
    } else if (arg == "--replay") {
      replay_path = flags.value();
    } else if (arg == "--metrics-out") {
      metrics_path = flags.value();
    } else if (arg == "--dump-trial") {
      dump_trial = flags.number(0, kMaxInt);
    } else if (arg == "--dump-dir") {
      dump_dir = flags.value();
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (!replay_path.empty()) {
    return replay(replay_path, metrics_path, dump_dir);
  }

  if (dump_trial >= 0) {
    const ftss::TrialPlan plan =
        ftss::sample_trial(config.adversary, config.weakened,
                           ftss::trial_seed_for(config.seed, dump_trial));
    std::cout << plan.describe() << plan.to_value().to_string() << "\n";
    return 0;
  }

  const ftss::ExplorerReport report = ftss::explore(config);
  std::cout << report.summary();

  if (!metrics_path.empty() &&
      !ftss::write_file(kTool, metrics_path,
                        metrics_json(report.metrics, config.seed,
                                     report.trials))) {
    return 2;
  }

  if (config.weakened == ftss::WeakenedKind::kNone) {
    if (report.failing_trials > 0) {
      // An oracle failed on a real protocol: preserve the black box.
      ftss::report_failure_dump(dump_dir, "ftss_check_failure",
                                &report.metrics);
      return 1;
    }
    return 0;
  }
  // A weakened protocol was planted: the explorer must catch it.
  if (report.failing_trials > 0) {
    std::cout << "weakened protocol caught (" << report.failing_trials << "/"
              << report.trials << " trials failing)\n";
    return 0;
  }
  std::cout << "ERROR: weakened protocol NOT caught\n";
  return 1;
}
