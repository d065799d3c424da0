// ftss_check: property-based adversary explorer CLI.
//
//   ftss_check --trials 1000 --seed 42          explore the real protocols
//   ftss_check --weakened ra-max                validate the oracles' teeth
//   ftss_check --replay plan.json               re-run one saved plan
//   ftss_check --dump-trial 17 --seed 42        print the 17th sampled plan
//
// Exit code: with --weakened none (the default), 0 iff no trial violated an
// oracle; with a weakened protocol selected, 0 iff the explorer *caught* it
// (failing to catch a planted bug is the failure).  --replay exits 0 iff the
// replayed plan passes.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "check/explorer.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "util/numeric.h"

namespace {

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
         "  --trace-out F    with --replay: write the replay's event trace\n"
         "                   (.jsonl -> JSONL, otherwise Chrome trace_event)\n"
         "  --dump-dir D     where failure artifacts (.flight + metrics)\n"
         "                   land (default $FTSS_DUMP_DIR, else \".\");\n"
         "                   decode with ftss_trace --flight\n";
}

bool write_file(const std::string& path, const std::string& contents,
                const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ftss_check: cannot write " << what << " to " << path << "\n";
    return false;
  }
  out << contents;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string metrics_json(const ftss::MetricsSnapshot& metrics,
                         std::uint64_t run_seed, int trials) {
  ftss::Value doc;
  doc["schema"] = ftss::Value("ftss-metrics-v1");
  doc["seed"] = ftss::Value(static_cast<std::int64_t>(run_seed));
  doc["trials"] = ftss::Value(trials);
  std::ostringstream fp;
  fp << "0x" << std::hex << metrics.fingerprint();
  doc["fingerprint"] = ftss::Value(fp.str());
  // "metrics" is the deterministic part (identical across --threads and
  // machine speed); wall-clock histograms go in "timing" so the split is
  // unmissable to anything diffing these files.
  doc["metrics"] = metrics.stable_value();
  doc["timing"] = metrics.timing_value();
  return doc.to_string() + "\n";
}

// Dump-on-failure: flight ring + full metrics snapshot, reproducer-adjacent.
void dump_failure(const std::string& dump_dir, const char* stem,
                  const ftss::MetricsSnapshot& metrics) {
  const std::string prefix =
      ftss::failure_dump_dir(dump_dir) + "/" + stem;
  const std::string path = ftss::dump_failure_artifacts(prefix, &metrics);
  if (!path.empty()) {
    std::cout << "flight dump: " << path << " (decode with ftss_trace "
              << "--flight " << path << ")\n";
  }
}

int replay(const std::string& path, const std::string& trace_path,
           const std::string& metrics_path, const std::string& dump_dir) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ftss_check: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = ftss::Value::parse(buffer.str());
  if (!parsed) {
    std::cerr << "ftss_check: " << path << " is not valid plan JSON\n";
    return 2;
  }
  const auto plan = ftss::TrialPlan::from_value(*parsed);
  if (!plan) {
    std::cerr << "ftss_check: " << path << " is not a well-formed plan\n";
    return 2;
  }
  std::cout << plan->describe();

  ftss::JsonlTraceSink jsonl;
  ftss::ChromeTraceSink chrome;
  ftss::TrialRunOptions options;
  const bool want_jsonl = ends_with(trace_path, ".jsonl");
  if (!trace_path.empty()) {
    options.trace = want_jsonl ? static_cast<ftss::TraceSink*>(&jsonl)
                               : static_cast<ftss::TraceSink*>(&chrome);
  }
  const ftss::TrialResult result = ftss::run_trial(*plan, options);
  if (!trace_path.empty() &&
      !write_file(trace_path, want_jsonl ? jsonl.to_string() : chrome.to_string(),
                  "trace")) {
    return 2;
  }
  if (!metrics_path.empty() &&
      !write_file(metrics_path, metrics_json(result.metrics, plan->trial_seed, 1),
                  "metrics")) {
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
  dump_failure(dump_dir, "ftss_check_replay_failure", result.metrics);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ftss::ExplorerConfig config;
  std::string replay_path;
  std::string trace_path;
  std::string metrics_path;
  std::string dump_dir;
  int dump_trial = -1;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ftss_check: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric flag's value: all of the next argument, inside [lo, hi].
    auto number = [&](auto lo, auto hi) {
      const char* text = next();
      const auto value = ftss::parse_integer(text, lo, hi);
      if (!value) {
        std::cerr << "ftss_check: " << arg << " needs an integer in [" << lo
                  << ", " << hi << "], got '" << text << "'\n";
        std::exit(2);
      }
      return *value;
    };
    if (arg == "--trials") {
      config.trials = number(0, kMaxInt);
    } else if (arg == "--seed") {
      config.seed = number(std::uint64_t{0}, kMaxSeed);
    } else if (arg == "--jobs" || arg == "--threads") {
      config.jobs = number(0u, kMaxUnsigned);
    } else if (arg == "--sim-threads") {
      ftss::set_sim_threads_default(number(0u, kMaxUnsigned));
    } else if (arg == "--mode") {
      const std::string m = next();
      config.adversary.allow_sync = m == "all" || m == "sync";
      config.adversary.allow_jitter = m == "all" || m == "jitter";
      config.adversary.allow_compiled = m == "all" || m == "compiled";
      if (!config.adversary.allow_sync && !config.adversary.allow_jitter &&
          !config.adversary.allow_compiled) {
        std::cerr << "ftss_check: unknown --mode " << m << "\n";
        return 2;
      }
    } else if (arg == "--weakened") {
      const auto w = ftss::parse_weakened_kind(next());
      if (!w) {
        std::cerr << "ftss_check: unknown --weakened kind\n";
        return 2;
      }
      config.weakened = *w;
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--max-failures") {
      config.max_failures = number(0, kMaxInt);
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg == "--dump-trial") {
      dump_trial = number(0, kMaxInt);
    } else if (arg == "--dump-dir") {
      dump_dir = next();
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (!trace_path.empty() && replay_path.empty()) {
    std::cerr << "ftss_check: --trace-out requires --replay (traces are "
                 "per-execution; use ftss_trace for saved plans)\n";
    return 2;
  }

  if (!replay_path.empty()) {
    return replay(replay_path, trace_path, metrics_path, dump_dir);
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
      !write_file(metrics_path,
                  metrics_json(report.metrics, config.seed, report.trials),
                  "metrics")) {
    return 2;
  }

  if (config.weakened == ftss::WeakenedKind::kNone) {
    if (report.failing_trials > 0) {
      // An oracle failed on a real protocol: preserve the black box.
      dump_failure(dump_dir, "ftss_check_failure", report.metrics);
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
