// Shared table-reporting helpers for the experiment benches.
//
// Each bench binary reproduces one experiment from DESIGN.md's index: it
// prints a table of paper-predicted bounds next to measured values (the
// paper is theory-only, so "reproduction" = empirical validation of each
// theorem/protocol's claimed behavior), then runs google-benchmark timings
// for the substrate operations involved.
//
// Machine-readable output: every bench accepts `--json PATH` and then also
// writes a BENCH_*.json document (schema "ftss-bench-v1") containing the
// host context it ran on, the printed tables, pass/fail checks, optional
// metrics, and per-benchmark timings — the perf-trajectory record compared
// across PRs.  Wire-up per binary is three lines: construct a JsonEmitter
// before printing tables, run benchmarks through it, return finish().
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/value.h"

namespace ftss::bench {

// The host and build a document was measured on, under the keys of
// perfbench's host_context(): timings taken on different core counts,
// compilers, build types or AVX2 paths are not comparable.  The build facts
// arrive as compile definitions (bench/CMakeLists.txt, and
// perfbench/CMakeLists.txt for ftss_bench); git_sha names the commit built,
// which compare_bench.py prints but does not count as a host difference.
inline Value host_context() {
  Value c;
  c["nproc"] = Value(static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency())));
  c["compiler"] = Value(FTSS_BENCH_COMPILER);
  c["build_type"] = Value(FTSS_BENCH_BUILD_TYPE);
  c["ftss_avx2"] = Value(static_cast<bool>(FTSS_BENCH_AVX2));
  c["git_sha"] = Value(FTSS_BENCH_GIT_SHA);
  __builtin_cpu_init();
  c["cpu_avx2"] = Value(__builtin_cpu_supports("avx2") != 0);
  return c;
}

class JsonEmitter;
inline JsonEmitter*& active_emitter() {
  static JsonEmitter* active = nullptr;
  return active;
}

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  void print() const {
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    std::printf("\n=== %s ===\n", title_.c_str());
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::printf("|");
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::fflush(stdout);
    record();  // mirrored into the active JsonEmitter, if any
  }

 private:
  void record() const;

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(std::int64_t v) { return std::to_string(v); }
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}
inline std::string pass(bool ok) { return ok ? "yes" : "NO"; }

// Collects the bench's printed tables, explicit pass/fail checks, optional
// structured metrics, and google-benchmark timings; writes them as one JSON
// document when the binary was invoked with `--json PATH` (the flag is
// stripped before benchmark::Initialize sees it).
class JsonEmitter {
 public:
  JsonEmitter(std::string bench_name, int* argc, char** argv)
      : name_(std::move(bench_name)) {
    for (int i = 1; i < *argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < *argc) {
        path_ = argv[i + 1];
        for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
        *argc -= 2;
        break;
      }
    }
    active_emitter() = this;
  }
  ~JsonEmitter() {
    if (active_emitter() == this) active_emitter() = nullptr;
  }
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;

  bool enabled() const { return !path_.empty(); }

  void add_table(const std::string& title,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<std::string>>& rows) {
    Value t;
    t["title"] = Value(title);
    Value::Array cols, rws;
    for (const auto& c : columns) cols.push_back(Value(c));
    for (const auto& row : rows) {
      Value::Array cells;
      for (const auto& cell : row) cells.push_back(Value(cell));
      rws.push_back(Value(std::move(cells)));
    }
    t["columns"] = Value(std::move(cols));
    t["rows"] = Value(std::move(rws));
    tables_.push_back(std::move(t));
  }

  // A named boolean acceptance check ("paper bound respected").  The JSON
  // records it; failing checks also fail the process exit code.
  void add_check(const std::string& name, bool ok) {
    Value c;
    c["name"] = Value(name);
    c["pass"] = Value(ok);
    checks_.push_back(std::move(c));
    if (!ok) any_check_failed_ = true;
  }

  // Attach a structured metrics document (e.g. MetricsSnapshot::to_value).
  void set_metrics(Value metrics) { metrics_ = std::move(metrics); }

  // Run google-benchmark through a collecting reporter so per-benchmark
  // timings land in the JSON (console output is unchanged).
  void run_benchmarks() {
    Collector reporter(this);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }

  // Writes the document if --json was given.  Returns the process exit
  // code: 0 unless a check failed or the file could not be written.
  int finish() {
    if (path_.empty()) return any_check_failed_ ? 1 : 0;
    Value doc;
    doc["schema"] = Value("ftss-bench-v1");
    doc["bench"] = Value(name_);
    doc["context"] = host_context();
    doc["tables"] = Value(std::move(tables_));
    doc["checks"] = Value(std::move(checks_));
    if (!metrics_.is_null()) doc["metrics"] = std::move(metrics_);
    doc["timings"] = Value(std::move(timings_));
    std::ofstream out(path_);
    out << doc.to_string() << "\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path_.c_str());
    return any_check_failed_ ? 1 : 0;
  }

 private:
  class Collector : public benchmark::ConsoleReporter {
   public:
    explicit Collector(JsonEmitter* emitter) : emitter_(emitter) {}
    void ReportRuns(const std::vector<Run>& runs) override {
      for (const Run& run : runs) {
        if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
        const double iters =
            run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
        Value t;
        t["name"] = Value(run.benchmark_name());
        t["iterations"] = Value(static_cast<std::int64_t>(run.iterations));
        t["real_ns_per_iter"] = Value(
            static_cast<std::int64_t>(run.real_accumulated_time / iters * 1e9));
        t["cpu_ns_per_iter"] = Value(
            static_cast<std::int64_t>(run.cpu_accumulated_time / iters * 1e9));
        // User counters (e.g. allocs_per_round) ride along so baselines
        // committed as BENCH_*.json keep them comparable across PRs.
        // Rate counters (items/bytes_per_second and anything flagged
        // kIsRate) used to truncate to int64 directly, which collapsed
        // slow-iteration rates to a useless 0 — BM_ScaledRoundsLarge/10000
        // runs ~0.09 items/s.  Value is integer-only by design (exact
        // comparisons), so rates are emitted in fixed-point milli-units
        // under NAME_milli instead: 0.0905 items/s -> items_per_second_milli
        // = 90.  compare_bench.py skips both spellings as timing-dependent.
        for (const auto& [counter_name, counter] : run.counters) {
          const bool is_rate =
              (counter.flags & benchmark::Counter::kIsRate) != 0 ||
              counter_name.ends_with("_per_second");
          if (is_rate) {
            t[counter_name + "_milli"] = Value(
                static_cast<std::int64_t>(counter.value * 1000.0 + 0.5));
          } else {
            t[counter_name] =
                Value(static_cast<std::int64_t>(counter.value));
          }
        }
        emitter_->timings_.push_back(std::move(t));
      }
      ConsoleReporter::ReportRuns(runs);
    }

   private:
    JsonEmitter* emitter_;
  };

  std::string name_;
  std::string path_;
  Value::Array tables_;
  Value::Array checks_;
  Value metrics_;
  Value::Array timings_;
  bool any_check_failed_ = false;
};

inline void Table::record() const {
  if (JsonEmitter* e = active_emitter()) e->add_table(title_, columns_, rows_);
}

}  // namespace ftss::bench
