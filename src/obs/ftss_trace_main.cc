// ftss_trace: replay a saved adversary plan (e.g. a shrunk reproducer
// printed by ftss_check) and emit its observability artifacts.
//
//   ftss_trace --plan plan.json --chrome trace.json   # chrome://tracing
//   ftss_trace --plan plan.json --jsonl trace.jsonl   # structured JSONL
//   ftss_trace --plan plan.json --dot hb.dot          # happened-before DAG
//   ftss_trace --plan plan.json --metrics m.json --dump
//
// Exit code 0 iff the replayed plan passes its oracles (same convention as
// ftss_check --replay), so tracing a pinned reproducer doubles as a check.
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "check/explorer.h"
#include "obs/causal_export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/history_dump.h"
#include "util/cli.h"

namespace {

constexpr char kTool[] = "ftss_trace";

void usage() {
  std::cerr << "usage: ftss_trace --plan FILE [outputs]\n"
               "       ftss_trace --flight FILE [--jsonl F] [--chrome F]\n"
               "  --plan FILE     replayable plan JSON (ftss_check format)\n"
               "  --flight FILE   decode a binary flight-recorder dump (as\n"
               "                  written on failure by ftss_check /\n"
               "                  ftss_conform); JSONL to stdout unless\n"
               "                  --jsonl/--chrome name output files\n"
               "  --jsonl FILE    structured JSONL event trace\n"
               "  --chrome FILE   Chrome trace_event JSON (tracing/Perfetto)\n"
               "  --dot FILE      happened-before DAG as Graphviz DOT\n"
               "  --metrics FILE  metrics snapshot JSON\n"
               "  --ring N        keep only the newest N JSONL events\n"
               "  --dump          print the history table (with sends and\n"
               "                  suspect sets) to stdout\n";
}

// --flight mode: no simulator run, just decode the dump and convert.
// Exit 2 with the typed wire error on any malformed/truncated file.
int decode_flight(const std::string& flight_path, const std::string& jsonl_path,
                  const std::string& chrome_path) {
  const std::optional<std::string> bytes = ftss::read_file(flight_path);
  if (!bytes) {
    std::cerr << kTool << ": cannot open " << flight_path << "\n";
    return 2;
  }
  const ftss::FlightDecodeResult decoded = ftss::decode_flight_dump(
      reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
  if (decoded.error != ftss::wire::WireError::kOk) {
    std::cerr << kTool << ": " << flight_path << ": "
              << ftss::wire::wire_error_name(decoded.error) << "\n";
    return 2;
  }
  std::int64_t events = 0;
  for (const ftss::FlightThreadDump& t : decoded.dump.threads) {
    events += static_cast<std::int64_t>(t.events.size());
  }
  std::cerr << "flight dump: " << decoded.dump.threads.size() << " threads, "
            << events << " events, rings_dropped "
            << decoded.dump.rings_dropped << "\n";
  if (!jsonl_path.empty() &&
      !ftss::write_file(kTool, jsonl_path,
                        ftss::flight_dump_to_jsonl(decoded.dump))) {
    return 2;
  }
  if (!chrome_path.empty() &&
      !ftss::write_file(kTool, chrome_path,
                        ftss::flight_dump_to_chrome(decoded.dump))) {
    return 2;
  }
  if (jsonl_path.empty() && chrome_path.empty()) {
    std::cout << ftss::flight_dump_to_jsonl(decoded.dump);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path, flight_path, jsonl_path, chrome_path, dot_path,
      metrics_path;
  std::size_t ring = 0;
  bool dump = false;

  ftss::FlagReader flags(kTool, argc, argv);
  while (flags.next()) {
    const std::string& arg = flags.flag();
    if (arg == "--plan") {
      plan_path = flags.value();
    } else if (arg == "--flight") {
      flight_path = flags.value();
    } else if (arg == "--jsonl") {
      jsonl_path = flags.value();
    } else if (arg == "--chrome") {
      chrome_path = flags.value();
    } else if (arg == "--dot") {
      dot_path = flags.value();
    } else if (arg == "--metrics") {
      metrics_path = flags.value();
    } else if (arg == "--ring") {
      ring = flags.number(std::size_t{0},
                          std::numeric_limits<std::size_t>::max());
    } else if (arg == "--dump") {
      dump = true;
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (!flight_path.empty()) {
    return decode_flight(flight_path, jsonl_path, chrome_path);
  }
  if (plan_path.empty()) {
    usage();
    return 2;
  }

  std::string error;
  const auto plan = ftss::load_plan_file(plan_path, &error);
  if (!plan) {
    std::cerr << kTool << ": " << error << "\n";
    return 2;
  }
  std::cout << plan->describe();

  // One simulator run feeds every requested output: the JSONL and Chrome
  // files render one trace tape, and the DOT export and dump read the
  // recorded history afterwards.  Only the JSONL honours --ring, so the
  // tape keeps every event when a Chrome file is asked for.
  ftss::TraceTape tape(chrome_path.empty() ? ring : 0);
  ftss::History history;
  ftss::TrialRunOptions options;
  options.record_states = true;  // dumps and DOT need clocks + suspect sets
  options.history_out = &history;
  if (!jsonl_path.empty() || !chrome_path.empty()) options.trace = &tape;
  const ftss::TrialResult result = ftss::run_trial(*plan, options);

  if (!jsonl_path.empty() &&
      !ftss::write_file(kTool, jsonl_path, ftss::trace_to_jsonl(tape, ring))) {
    return 2;
  }
  if (!chrome_path.empty() &&
      !ftss::write_file(kTool, chrome_path, ftss::trace_to_chrome(tape))) {
    return 2;
  }
  if (!dot_path.empty() &&
      !ftss::write_file(kTool, dot_path,
                        ftss::causal_dot_to_string(history))) {
    return 2;
  }
  if (dump) {
    ftss::DumpOptions d;
    d.show_sends = true;
    d.show_suspects = true;
    std::cout << ftss::history_to_string(history, d);
  }

  if (!metrics_path.empty()) {
    ftss::Value doc = result.metrics.document();
    doc["plan_seed"] =
        ftss::Value(static_cast<std::int64_t>(plan->trial_seed));
    if (!ftss::write_file(kTool, metrics_path, doc.to_string() + "\n")) {
      return 2;
    }
  }

  if (result.evaluation.ok()) {
    std::cout << "PASS\n";
    return 0;
  }
  std::cout << "FAIL\n" << result.evaluation.describe();
  return 1;
}
