// ftss_bench: the repository's end-to-end benchmark.
//
//   ftss_bench --workload NAME --seed S [--seconds T] [--json F]
//              [--trace-out DIR] [--smoke]
//
// One process runs one workload (names and the reason for each are in
// BENCHMARK.json; perfbench/run.py builds this binary and maps
// BENCHMARK.json's `--trace 0|1` onto --trace-out).  A run has three parts:
//   1. Set-up, reported as setup_s: the median of the run's set-ups (five
//      warm-up calls on fixed inputs for check and conform, the first also
//      warming the shared WorkerPool; one system build per rounds epoch or
//      per svc cell, svc topping up to five).
//   2. A timed region that calls only the public entry points the CLIs call
//      (explore, conform_sweep, SyncSimulator::run_rounds, KvService::run and
//      report), in batches, until T seconds (default 10) have passed.
//      Batch inputs are a pure function of --seed.
//   3. Correctness checks: any failure prints `correct: false`, exit 1.
// --smoke runs one small batch.  The last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics; --json F also
// writes the tables, checks and host context as an ftss-bench-v1 document.
//
// Workloads:
//   check-explore       explore() in batches of 400 sync-mode trials,
//                       jobs = min(2, nproc)
//   conform-sweep       conform_sweep() at jobs 1, one plan per call, in
//                       batches of ten plans of fixed shapes (see below)
//   rounds-1024         1024 RoundAgreementProcesses, 64 clocks corrupted,
//                       records off, one run_rounds(1) per sample, 1 lane,
//                       in epochs of 128 rounds on a fresh system
//   svc-batched         KvService cells: n=5, 20 000 clients x 10 ops, 20%
//                       reads, batch 1024, horizon 30 000, drain
//   svc-faults          KvService cells: n=5, 100 clients x 5 ops, 20%
//                       reads, batch 1, EXP21a's corruption wave at t=7000 +
//                       crash of replica 4 at t=12000, horizon 20 000, drain
//                       (batch 1 decides ~30 writes per 1000t, so a larger
//                       population would leave writes uncompleted)
//
// End-to-end metrics (untraced): setup_s; peak_rss_mb (ru_maxrss); and
// ops_per_s, the 90th percentile of the per-batch rates in the workload's
// unit: trials, plans, rounds, or client requests (writes completed plus
// reads served, over run() + report()).  The percentile is the rate of the
// batches that bursts of load from other tenants of a shared VM did not
// slow.
// `attempted`/`failed` count the same units: failing trials, divergent
// plans, rounds of an epoch that fails Thm 3 or differs between lane
// counts, and rejected reads plus writes the drain left uncompleted.
//
// Traced pass (--trace-out DIR): the run measures untraced for T/2, then
// repeats the same batches with the same seeds, rebuilding each entry point
// from the public calls it makes, with spans around the calls into each
// layer.  Spans are kept in per-thread memory and written to
// DIR/spans.jsonl at exit; fine-grained calls (per-process begin/end_round,
// per-module handlers) go to accumulators instead.  The per-layer table:
//   count      spans closed (handler calls, for accumulators)
//   total ms   summed durations
//   self ms    total minus the part its child spans cover
//   share      self / traced total
// and a final `unattributed` row: the traced total minus every self time
// (sweep idle tails, loop and span overhead).  The traced total is wall time,
// times the lane count for parallel sweeps.  Traced and untraced outputs must
// be identical (explore/conform fingerprints, round histories, replica
// decision logs), or the run fails.
//
// Per-layer metrics (--trace-out): every run prints all of them; a layer
// the workload does not reach reads 0.  Times are per unit of the workload.
// Each group names the end-to-end metric it should move, and where:
//   util.pool_first_sweep_lanes (threads that ran the first sweep, before
//     warm-up), util.cpu_per_wall        -> ops_per_s @ check-explore
//   check.{sample,build,evaluate}_ms, sim.run_rounds_ms,
//     obs.history_metrics_ms, check.trial_ms_p50
//                                        -> ops_per_s @ check-explore
//   conform.{lockstep,transport,extension,permutation,tracing,cow}_ms,
//     wire.{encode,decode}_ms, net.hub_wait_ms (transport leg minus codec),
//     net.frames_per_plan, wire.bytes_per_plan
//                                        -> ops_per_s @ conform-sweep
//   sim.engine_ms (round wall minus protocol time),
//     protocols.{begin,end}_round_ms (summed over processes),
//     sim.round_ms_p98, sim.allocs_per_round, sim.cpu_ms_per_round,
//     sim.lanes2_{round,cpu}_ms (the first epoch again at two lanes)
//                                        -> ops_per_s @ rounds-1024
//   async.dispatch_self_us, detect.{hb,gfd}_us, consensus.rcons_us,
//     async.msgs_per_op, consensus.instances
//                                        -> ops_per_s @ svc-faults
//   svc.{pump_self,report,kv_apply}_us, svc.cmds_per_instance,
//     svc.retransmitted, svc.instances_skipped, svc.dirty_instances,
//     svc.virtual_ticks                  -> ops_per_s, peak_rss_mb
//                                           @ svc-batched
//   trace.overhead_share (traced rate against untraced), and
//     trace.unattributed_share           -> every workload
// svc time is attributed by replaying the run: the node stack is rebuilt
// from its public constructors with every module wrapped in a timing
// forwarder, fed the plane's memoized proposals, the same crashes and the
// same corruption overlays at the same pump boundaries.  The replay's wall
// time is async dispatch plus modules, re-applying every decided value
// through fresh KvStores gives kv_apply, and pump_self is run() minus both.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "check/adversary.h"
#include "check/explorer.h"
#include "check/oracles.h"
#include "check/trial_build.h"
#include "conform/conform.h"
#include "conform/diff.h"
#include "consensus/harness.h"
#include "core/predicates.h"
#include "core/round_agreement.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"
#include "svc/kv.h"
#include "svc/service.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/worker_pool.h"

// Heap-allocation counter for sim.allocs_per_round, as in bench_compiler.
// Counting is switched on only around the traced rounds pass, so the
// untraced hot paths pay one relaxed load per allocation.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every unaligned form is replaced, so each allocation and its release go
// through the same malloc/free pair.  GCC flags the inlined bodies as
// mismatched new/delete; both sides are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace ftss::perf {
namespace {

// --- clocks and small statistics ---------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seed of the b-th batch of a run: every input is a function of --seed and
// the batch index only.
std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t batch) {
  return mix64(mix64(seed) ^ (batch * 0x100000001b3ULL));
}

// The explorer's and the conformance sweep's fingerprint fold.
std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

unsigned hardware_lanes() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- spans -------------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = -1;  // -1: reported by the program, not timed here
  std::int64_t dur_ns = 0;
  std::int64_t child_ns = 0;
};

struct ThreadSpans {
  int tid = 0;
  std::vector<SpanRecord> open;
  std::vector<SpanRecord> done;
};

// Per-thread span buffers.  A thread registers its buffer on first use; the
// buffers are read only after every sweep has joined (the pool's batch
// hand-off orders the workers' writes before the caller's reads).
class SpanLog {
 public:
  static ThreadSpans& local() {
    thread_local ThreadSpans* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu());
      threads().push_back(std::make_unique<ThreadSpans>());
      mine = threads().back().get();
      mine->tid = static_cast<int>(threads().size()) - 1;
    }
    return *mine;
  }

  static void open(const char* name) {
    local().open.push_back(SpanRecord{name, now_ns(), 0, 0});
  }

  static void close() {
    ThreadSpans& t = local();
    SpanRecord s = t.open.back();
    t.open.pop_back();
    s.dur_ns = now_ns() - s.start_ns;
    if (!t.open.empty()) t.open.back().child_ns += s.dur_ns;
    t.done.push_back(s);
  }

  // A child of the innermost open span whose duration the program measured
  // itself (codec time inside the transport leg, summed protocol time).
  static void add(const char* name, std::int64_t dur_ns) {
    ThreadSpans& t = local();
    if (!t.open.empty()) t.open.back().child_ns += dur_ns;
    t.done.push_back(SpanRecord{name, -1, dur_ns, 0});
  }

  struct Totals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  static std::map<std::string, Totals> totals() {
    std::map<std::string, Totals> out;
    std::lock_guard<std::mutex> lock(mu());
    for (const auto& t : threads()) {
      for (const SpanRecord& s : t->done) {
        Totals& agg = out[s.name];
        ++agg.count;
        agg.total_ns += s.dur_ns;
        agg.self_ns += s.dur_ns - s.child_ns;
      }
    }
    return out;
  }

  static bool write_jsonl(const std::string& path) {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu());
    for (const auto& t : threads()) {
      for (const SpanRecord& s : t->done) {
        out << "{\"tid\": " << t->tid << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.start_ns << ", \"dur_ns\": "
            << s.dur_ns << ", \"self_ns\": " << s.dur_ns - s.child_ns
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::vector<std::unique_ptr<ThreadSpans>>& threads() {
    static std::vector<std::unique_ptr<ThreadSpans>> t;
    return t;
  }
};

class Span {
 public:
  explicit Span(const char* name) { SpanLog::open(name); }
  ~Span() { SpanLog::close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

template <typename Fn>
auto spanned(const char* name, Fn&& fn) {
  Span s(name);
  return fn();
}

// --- metric catalog ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"}};

constexpr MetricSpec kPerLayer[] = {
    {"util.pool_first_sweep_lanes", "count"},
    {"util.cpu_per_wall", "ratio"},
    {"check.sample_ms", "ms"},
    {"check.build_ms", "ms"},
    {"sim.run_rounds_ms", "ms"},
    {"check.evaluate_ms", "ms"},
    {"obs.history_metrics_ms", "ms"},
    {"check.trial_ms_p50", "ms"},
    {"conform.lockstep_ms", "ms"},
    {"conform.transport_ms", "ms"},
    {"conform.extension_ms", "ms"},
    {"conform.permutation_ms", "ms"},
    {"conform.tracing_ms", "ms"},
    {"conform.cow_ms", "ms"},
    {"wire.encode_ms", "ms"},
    {"wire.decode_ms", "ms"},
    {"net.hub_wait_ms", "ms"},
    {"net.frames_per_plan", "count"},
    {"wire.bytes_per_plan", "bytes"},
    {"sim.engine_ms", "ms"},
    {"protocols.begin_round_ms", "ms"},
    {"protocols.end_round_ms", "ms"},
    {"sim.round_ms_p98", "ms"},
    {"sim.allocs_per_round", "count"},
    {"sim.cpu_ms_per_round", "ms"},
    {"sim.lanes2_round_ms", "ms"},
    {"sim.lanes2_cpu_ms", "ms"},
    {"async.dispatch_self_us", "us"},
    {"detect.hb_us", "us"},
    {"detect.gfd_us", "us"},
    {"consensus.rcons_us", "us"},
    {"async.msgs_per_op", "count"},
    {"consensus.instances", "count"},
    {"svc.pump_self_us", "us"},
    {"svc.report_us", "us"},
    {"svc.kv_apply_us", "us"},
    {"svc.cmds_per_instance", "count"},
    {"svc.retransmitted", "count"},
    {"svc.instances_skipped", "count"},
    {"svc.dirty_instances", "count"},
    {"svc.virtual_ticks", "ticks"},
    {"trace.overhead_share", "fraction"},
    {"trace.unattributed_share", "fraction"},
};

// --- one run -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string trace_out;  // empty: untraced

  bool traced() const { return !trace_out.empty(); }
  // Untraced measuring time: all of it, or half when a traced pass follows.
  double budget() const {
    if (smoke) return 0;
    return traced() ? seconds / 2 : seconds;
  }
};

struct LayerRow {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> setup_s;  // one entry per set-up
  std::vector<double> rates;    // units per second, one entry per batch
  std::map<std::string, double> layer;
  std::vector<std::pair<std::string, bool>> checks;
  // Traced pass: per-layer attribution of `traced_total_ns`.
  std::vector<LayerRow> rows;
  std::int64_t traced_total_ns = 0;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

// Runs batches until `seconds` have passed, and at least `min_batches`.
class Budget {
 public:
  Budget(double seconds, std::size_t min_batches)
      : start_(now_ns()), seconds_(seconds), min_(min_batches) {}
  bool more(std::size_t done) const {
    return done < min_ || seconds_since(start_) < seconds_;
  }

 private:
  std::int64_t start_;
  double seconds_;
  std::size_t min_;
};

constexpr int kSetups = 5;
// Fixed inputs of the warm-up calls set-up makes, so set-up work does not
// depend on --seed.
constexpr std::uint64_t kWarmupSeed = 42;

// Rows for the named spans, in order, from the span totals.
std::vector<LayerRow> span_rows(const std::vector<const char*>& names) {
  const auto totals = SpanLog::totals();
  std::vector<LayerRow> rows;
  for (const char* name : names) {
    const auto it = totals.find(name);
    LayerRow row{name};
    if (it != totals.end()) {
      row.count = it->second.count;
      row.total_ns = it->second.total_ns;
      row.self_ns = it->second.self_ns;
    }
    rows.push_back(row);
  }
  return rows;
}

// Posts sweeps on the shared pool until one sweep ran a task on each of
// `lanes` threads; returns how many distinct threads ran the first sweep.
// (A pool worker that reaches its loop after a batch was posted skips that
// batch, so a fresh process's first sweep may run on fewer threads.)
int warm_pool(unsigned lanes) {
  int first = 0;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_sweep<int>(
        8 * lanes,
        [&](std::size_t) {
          {
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return 0;
        },
        lanes);
    const int ran = static_cast<int>(ids.size());
    if (attempt == 0) first = ran;
    if (ran >= static_cast<int>(lanes)) break;
  }
  return first;
}

// --- check-explore -----------------------------------------------------------

// `ftss_check --mode sync`: at seeds the test suite does not pin, the
// jitter and compiled oracles fail about once per 10^5 trials (reproducers
// in CHANGES.md), and one run makes ~10^4 trials.
AdversaryConfig sync_adversary() {
  AdversaryConfig adversary;
  adversary.allow_jitter = false;
  adversary.allow_compiled = false;
  return adversary;
}

struct CheckBatch {
  std::uint64_t seed = 0;
  int trials = 0;
  std::uint64_t fingerprint = 0;
  std::int64_t wall_ns = 0;
};

struct TracedTrial {
  std::uint64_t seed = 0;
  TrialEvaluation evaluation;
  MetricsSnapshot metrics;
  std::int64_t ns = 0;
};

// run_trial rebuilt from its public calls, one span per layer.
TracedTrial traced_trial(const AdversaryConfig& adversary,
                         std::uint64_t trial_seed) {
  Span trial("check.trial");
  const std::int64_t t0 = now_ns();
  TracedTrial out;
  out.seed = trial_seed;
  const TrialPlan plan = spanned("check.sample", [&] {
    return sample_trial(adversary, WeakenedKind::kNone, trial_seed);
  });
  {
    std::unique_ptr<SyncSimulator> sim;
    {
      Span s("check.build");
      std::string error;
      auto procs = build_trial_processes(plan, &error);
      if (procs.empty()) {
        out.evaluation.violations.push_back(Violation{"compiled-setup", error});
      } else {
        SyncConfig config;
        config.seed = plan.trial_seed;
        config.record_states = false;
        config.max_extra_delay = plan.max_extra_delay;
        config.threads = 0;
        sim = std::make_unique<SyncSimulator>(config, std::move(procs));
        configure_trial(*sim, plan);
      }
    }
    if (sim) {
      spanned("sim.run_rounds", [&] { sim->run_rounds(plan.rounds); });
      out.evaluation = spanned("check.evaluate",
                               [&] { return evaluate_trial(*sim, plan); });
      Span s("obs.history_metrics");
      MetricsRegistry reg;
      record_history_metrics(sim->history(), reg);
      reg.add("trials");
      reg.add(std::string("trials_mode_") + to_string(plan.mode), 1);
      if (!out.evaluation.ok()) reg.add("trials_failing");
      for (const auto& v : out.evaluation.violations) {
        reg.add("violations_" + v.oracle);
      }
      if (out.evaluation.stabilization) {
        reg.observe("stabilization_latency", *out.evaluation.stabilization,
                    stabilization_latency_bounds());
      }
      out.metrics = reg.snapshot();
    }
  }
  out.ns = now_ns() - t0;
  return out;
}

RunResult run_check(const Options& opt) {
  RunResult r;
  const unsigned jobs = std::min(2u, hardware_lanes());
  ExplorerConfig config;
  config.jobs = jobs;
  config.adversary = sync_adversary();

  const std::int64_t pool_t0 = now_ns();
  r.layer["util.pool_first_sweep_lanes"] = warm_pool(jobs);
  const double pool_s = seconds_since(pool_t0);
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = now_ns();
    ExplorerConfig warm = config;
    warm.seed = kWarmupSeed;
    warm.trials = opt.smoke ? 4 : 128;
    (void)explore(warm);
    r.setup_s.push_back(seconds_since(t0) + (k == 0 ? pool_s : 0));
  }

  std::vector<CheckBatch> batches;
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  for (Budget budget(opt.budget(), 1); budget.more(batches.size());) {
    ExplorerConfig c = config;
    c.seed = batch_seed(opt.seed, batches.size());
    c.trials = opt.smoke ? 12 : 400;
    const std::int64_t t0 = now_ns();
    const ExplorerReport report = explore(c);
    const CheckBatch b{c.seed, report.trials, report.fingerprint, now_ns() - t0};
    r.rates.push_back(b.trials / (b.wall_ns * 1e-9));
    r.attempted += report.trials;
    r.failed += report.failing_trials;
    batches.push_back(b);
  }
  r.layer["util.cpu_per_wall"] =
      (cpu_seconds() - cpu0) / seconds_since(wall0);
  r.check("check: no failing trials", r.failed == 0);
  if (!opt.traced()) return r;

  // Traced pass: the same batches, each trial rebuilt from public calls.
  std::vector<double> trial_ms;
  std::int64_t untraced_ns = 0, traced_ns = 0;
  bool identical = true;
  for (const CheckBatch& b : batches) {
    const std::int64_t t0 = now_ns();
    const std::vector<TracedTrial> results = parallel_sweep<TracedTrial>(
        static_cast<std::size_t>(b.trials),
        [&](std::size_t i) {
          return traced_trial(config.adversary,
                              trial_seed_for(b.seed, static_cast<int>(i)));
        },
        jobs);
    // explore()'s serial fold: metrics merge and fingerprint.
    Span fold("check.fold");
    std::uint64_t fp = kFnvBasis;
    MetricsSnapshot merged;
    for (const TracedTrial& t : results) {
      merged.merge(t.metrics);
      trial_ms.push_back(t.ns * 1e-6);
      fp = fnv(fp, t.seed);
      fp = fnv(fp, t.evaluation.ok() ? 1 : 2);
      for (const auto& v : t.evaluation.violations) fp = fnv_str(fp, v.oracle);
      if (t.evaluation.stabilization) {
        fp = fnv(fp, static_cast<std::uint64_t>(*t.evaluation.stabilization) + 3);
      }
    }
    identical = identical && fp == b.fingerprint;
    untraced_ns += b.wall_ns;
    traced_ns += now_ns() - t0;
  }
  r.check("check: traced trials reproduce explore()'s fingerprint", identical);

  r.rows = span_rows({"check.sample", "check.build", "sim.run_rounds",
                      "check.evaluate", "obs.history_metrics", "check.trial",
                      "check.fold"});
  const double per_trial = 1e-6 / static_cast<double>(r.attempted);
  r.layer["check.sample_ms"] = r.rows[0].self_ns * per_trial;
  r.layer["check.build_ms"] = r.rows[1].self_ns * per_trial;
  r.layer["sim.run_rounds_ms"] = r.rows[2].self_ns * per_trial;
  r.layer["check.evaluate_ms"] = r.rows[3].self_ns * per_trial;
  r.layer["obs.history_metrics_ms"] = r.rows[4].self_ns * per_trial;
  r.layer["check.trial_ms_p50"] = median(trial_ms);
  r.traced_total_ns = traced_ns * jobs;  // lane time
  r.layer["trace.overhead_share"] =
      static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1;
  return r;
}

// --- conform-sweep -----------------------------------------------------------

std::vector<ProcessId> rotation(int n) {
  std::vector<ProcessId> perm(n);
  for (int p = 0; p < n; ++p) perm[p] = (p + 1) % n;
  return perm;
}

struct TransportTally {
  std::int64_t frames = 0;
  std::int64_t bytes = 0;
};

std::int64_t histogram_sum(const MetricsSnapshot& snapshot, const char* name) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0 : it->second.sum;
}

// check_transport's body, with the leg's own codec timing made visible.
OracleResult traced_transport(const TrialPlan& plan, TransportTally& tally) {
  Span span("conform.transport");
  OracleResult out;
  out.oracle = "transport";
  TransportResult result = run_transport_trial(plan);
  const std::int64_t encode = histogram_sum(result.timing, "wire_encode_ns");
  const std::int64_t decode = histogram_sum(result.timing, "wire_decode_ns");
  const std::int64_t leg = histogram_sum(result.timing, "transport_trial_ns");
  SpanLog::add("wire.encode", encode);
  SpanLog::add("wire.decode", decode);
  SpanLog::add("net.hub", std::max<std::int64_t>(0, leg - encode - decode));
  tally.frames += result.frames_sent;
  tally.bytes += result.bytes_sent;
  if (!result.supported) {
    out.applicable = false;
    out.skip_reason = result.unsupported_reason;
    return out;
  }
  for (TransportNote& note : result.notes) {
    out.divergences.push_back(
        Divergence{std::move(note.kind), note.round, std::move(note.detail)});
  }
  Span diff("conform.diff");
  for (Divergence& d :
       diff_histories(result.sync_history, result.transport_history)) {
    out.divergences.push_back(std::move(d));
  }
  return out;
}

// run_conformance's battery, in its order, one span per oracle.
std::vector<OracleResult> traced_conformance(const TrialPlan& plan,
                                             TransportTally& tally) {
  std::vector<OracleResult> out;
  out.push_back(spanned("conform.lockstep", [&] { return check_lockstep(plan); }));
  out.push_back(traced_transport(plan, tally));
  out.push_back(spanned("conform.extension", [&] {
    return check_extension(plan, plan.rounds / 2);
  }));
  out.push_back(spanned("conform.permutation", [&] {
    return check_permutation(normalize_for_permutation(plan), rotation(plan.n));
  }));
  out.push_back(spanned("conform.tracing",
                        [&] { return check_trace_transparency(plan); }));
  out.push_back(
      spanned("conform.cow", [&] { return check_cow_transparency(plan); }));
  return out;
}

// conform_sweep's per-plan fingerprint step.
std::uint64_t fold_conformance(std::uint64_t fp, const TrialPlan& plan,
                               const std::vector<OracleResult>& results) {
  fp = fnv(fp, plan.trial_seed);
  for (const OracleResult& r : results) {
    fp = fnv_str(fp, r.oracle);
    if (!r.applicable) {
      fp = fnv(fp, 1);
    } else if (r.ok()) {
      fp = fnv(fp, 2);
    } else {
      fp = fnv(fp, 3);
      std::set<std::string> kinds;
      for (const Divergence& d : r.divergences) kinds.insert(d.kind);
      for (const std::string& kind : kinds) fp = fnv_str(fp, kind);
    }
  }
  return fp;
}

// Every batch runs one plan of each shape in a fixed template, so a run's
// mix of cheap and expensive plans does not depend on --seed (a free mix
// moved plans/s by 15% between seeds); the seed draws each plan's faults
// and corruptions.  The template is the first kConformSlots plans of
// kTemplateSeed: 4 round-agreement, 2 jitter and 4 compiled plans over four
// protocols, n from 3 to 8, the sampler's 2:1:2 mode mix.
constexpr std::uint64_t kTemplateSeed = 31;
constexpr int kConformSlots = 10;

bool same_shape(const TrialPlan& a, const TrialPlan& b) {
  return a.mode == b.mode && a.protocol == b.protocol && a.n == b.n &&
         a.rounds == b.rounds && a.max_extra_delay == b.max_extra_delay;
}

// The first conform_sweep seed from `start` on whose one plan has the shape
// of `shape`.
std::uint64_t sweep_seed_with_shape(const AdversaryConfig& adversary,
                                    const TrialPlan& shape,
                                    std::uint64_t start) {
  for (std::uint64_t s = start;; ++s) {
    if (same_shape(sample_trial(adversary, WeakenedKind::kNone,
                                trial_seed_for(s, 0)),
                   shape)) {
      return s;
    }
  }
}

struct ConformPlan {
  std::uint64_t sweep_seed = 0;
  std::uint64_t fingerprint = 0;
};

RunResult run_conform(const Options& opt) {
  RunResult r;
  ConformConfig config;
  config.jobs = 1;
  config.trials = 1;
  r.layer["util.pool_first_sweep_lanes"] = 0;  // the sweep runs inline

  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = now_ns();
    ConformConfig warm = config;
    warm.seed = kWarmupSeed;
    (void)conform_sweep(warm);
    r.setup_s.push_back(seconds_since(t0));
  }
  std::vector<TrialPlan> shapes;
  for (int i = 0; i < (opt.smoke ? 1 : kConformSlots); ++i) {
    shapes.push_back(sample_trial(config.adversary, WeakenedKind::kNone,
                                  trial_seed_for(kTemplateSeed, i)));
  }

  std::vector<ConformPlan> plans;
  std::int64_t untraced_ns = 0;
  double cpu_s = 0;
  for (Budget budget(opt.budget(), 1); budget.more(r.rates.size());) {
    std::int64_t batch_ns = 0;
    for (const TrialPlan& shape : shapes) {
      ConformConfig c = config;
      c.seed = sweep_seed_with_shape(config.adversary, shape,
                                     batch_seed(opt.seed, plans.size()));
      const double cpu0 = cpu_seconds();
      const std::int64_t t0 = now_ns();
      const ConformReport report = conform_sweep(c);
      batch_ns += now_ns() - t0;
      cpu_s += cpu_seconds() - cpu0;
      plans.push_back({c.seed, report.fingerprint});
      r.attempted += report.trials;
      r.failed += report.divergent_trials;
    }
    untraced_ns += batch_ns;
    r.rates.push_back(static_cast<double>(shapes.size()) / (batch_ns * 1e-9));
  }
  r.layer["util.cpu_per_wall"] = cpu_s / (untraced_ns * 1e-9);
  r.check("conform: no divergent plans", r.failed == 0);
  if (!opt.traced()) return r;

  TransportTally tally;
  bool identical = true;
  const std::int64_t t0 = now_ns();
  for (const ConformPlan& p : plans) {
    Span plan_span("conform.plan");
    const TrialPlan plan = spanned("conform.sample", [&] {
      return sample_trial(config.adversary, WeakenedKind::kNone,
                          trial_seed_for(p.sweep_seed, 0));
    });
    identical = identical &&
                fold_conformance(kFnvBasis, plan,
                                 traced_conformance(plan, tally)) ==
                    p.fingerprint;
  }
  const std::int64_t traced_ns = now_ns() - t0;
  r.check("conform: traced sweep fingerprints equal conform_sweep()'s",
          identical);

  const double n = static_cast<double>(r.attempted);
  r.rows = span_rows({"conform.sample", "conform.lockstep", "conform.transport",
                      "net.hub", "wire.encode", "wire.decode", "conform.diff",
                      "conform.extension", "conform.permutation",
                      "conform.tracing", "conform.cow", "conform.plan"});
  auto per_plan_ms = [&](const std::string& name) {
    for (const LayerRow& row : r.rows) {
      if (row.name == name) return row.total_ns * 1e-6 / n;
    }
    return 0.0;
  };
  for (const char* oracle : {"lockstep", "transport", "extension",
                             "permutation", "tracing", "cow"}) {
    const std::string span = std::string("conform.") + oracle;
    r.layer[span + "_ms"] = per_plan_ms(span);
  }
  r.layer["wire.encode_ms"] = per_plan_ms("wire.encode");
  r.layer["wire.decode_ms"] = per_plan_ms("wire.decode");
  r.layer["net.hub_wait_ms"] = per_plan_ms("net.hub");
  r.layer["net.frames_per_plan"] = tally.frames / n;
  r.layer["wire.bytes_per_plan"] = tally.bytes / n;
  r.traced_total_ns = traced_ns;
  r.layer["trace.overhead_share"] =
      static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1;
  return r;
}

// --- rounds-1024 -------------------------------------------------------------

constexpr int kRoundsN = 1024;
constexpr int kRoundsCorrupted = 64;

// A forwarding process that times begin_round/end_round into its own
// accumulators.  Each process is driven by one lane at a time, so the
// accumulators are safe under the parallel round engine.
class TimedProcess : public SyncProcess {
 public:
  explicit TimedProcess(std::unique_ptr<SyncProcess> inner)
      : inner_(std::move(inner)) {}

  void begin_round(Outbox& out) override {
    const std::int64_t t0 = now_ns();
    inner_->begin_round(out);
    begin_ns += now_ns() - t0;
  }
  void end_round(const std::vector<Message>& delivered) override {
    const std::int64_t t0 = now_ns();
    inner_->end_round(delivered);
    end_ns += now_ns() - t0;
  }
  Value snapshot_state() const override { return inner_->snapshot_state(); }
  void restore_state(const Value& state) override {
    inner_->restore_state(state);
  }
  std::optional<Round> round_counter() const override {
    return inner_->round_counter();
  }
  bool halted() const override { return inner_->halted(); }
  const ProcessSet* suspect_set() const override {
    return inner_->suspect_set();
  }

  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;

 private:
  std::unique_ptr<SyncProcess> inner_;
};

// Figure 1 at n = 1024 with kRoundsCorrupted clocks set to seed-chosen
// values; histories keep only the per-round columns Thm 3 needs.
std::unique_ptr<SyncSimulator> rounds_system(std::uint64_t seed,
                                             unsigned lanes, bool timed) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  procs.reserve(kRoundsN);
  for (ProcessId p = 0; p < kRoundsN; ++p) {
    auto ra = std::make_unique<RoundAgreementProcess>(p);
    if (timed) {
      procs.push_back(std::make_unique<TimedProcess>(std::move(ra)));
    } else {
      procs.push_back(std::move(ra));
    }
  }
  SyncConfig config;
  config.seed = seed;
  config.record_states = false;
  config.record_sends = false;
  config.threads = lanes;
  auto sim = std::make_unique<SyncSimulator>(config, std::move(procs));
  Rng rng(seed);
  for (int p : rng.sample(kRoundsN, kRoundsCorrupted)) {
    sim->corrupt_state(p, clock_corruption(rng.uniform(0, 1'000'000)));
  }
  return sim;
}

// Rounds run at one lane, in epochs of kEpochRounds on a freshly built
// system each, so the history (and peak RSS) does not grow with the time
// budget.  Each epoch's build plus its first round (first-touch allocation,
// recovery from the corrupted clocks) is one set-up.  Two lanes are a
// per-layer diagnostic, not the timed configuration: every pool batch waits
// for all pool workers to wake, and on a shared 4-vCPU VM that moved the
// two-lane rate by 40% between runs.
constexpr int kEpochRounds = 128;

RunResult run_rounds(const Options& opt) {
  RunResult r;
  const unsigned lanes2 = std::min(2u, hardware_lanes());
  const int epoch_rounds = opt.smoke ? 3 : kEpochRounds;
  // Rounds of the first epoch re-run at two lanes in every run.
  const int prefix = opt.smoke ? 2 : 24;

  std::vector<double> round_ms;
  std::vector<std::uint64_t> epoch_fps;  // history fingerprint per epoch
  std::uint64_t prefix_fp = 0;
  bool thm3 = true;
  double cpu_s = 0;
  for (Budget budget(opt.budget(), 1); budget.more(epoch_fps.size());) {
    std::int64_t t0 = now_ns();
    auto sim = rounds_system(batch_seed(opt.seed, epoch_fps.size()), 1, false);
    sim->run_rounds(1);
    r.setup_s.push_back(seconds_since(t0));
    const double cpu0 = cpu_seconds();
    for (int i = 0; i < epoch_rounds; ++i) {
      t0 = now_ns();
      sim->run_rounds(1);
      const double dt = seconds_since(t0);
      round_ms.push_back(dt * 1e3);
      r.rates.push_back(1 / dt);
      if (epoch_fps.empty() && i + 1 == prefix) {
        prefix_fp = history_fingerprint(sim->history());
      }
    }
    cpu_s += cpu_seconds() - cpu0;
    thm3 = thm3 && check_round_agreement_ftss(sim->history(), 1).ok;
    epoch_fps.push_back(history_fingerprint(sim->history()));
  }
  const int rounds = static_cast<int>(round_ms.size());
  double untraced_ms = 0;
  for (double ms : round_ms) untraced_ms += ms;
  r.layer["util.cpu_per_wall"] = cpu_s * 1e3 / untraced_ms;
  r.layer["sim.cpu_ms_per_round"] = cpu_s * 1e3 / rounds;
  r.layer["sim.round_ms_p98"] = percentile(round_ms, 98);

  r.check("rounds: Thm 3 holds with stabilization time 1 in every epoch", thm3);
  r.layer["util.pool_first_sweep_lanes"] = warm_pool(lanes2);
  auto parallel = rounds_system(batch_seed(opt.seed, 0), lanes2, false);
  parallel->run_rounds(1 + prefix);
  const bool lanes_agree =
      history_fingerprint(parallel->history()) == prefix_fp;
  r.check("rounds: " + std::to_string(prefix + 1) +
              "-round history identical at 1 and " + std::to_string(lanes2) +
              " lanes",
          lanes_agree);
  r.attempted = rounds;
  r.failed = thm3 && lanes_agree ? 0 : rounds;
  if (!opt.traced()) return r;

  // Traced pass: the same epochs, every process behind a TimedProcess.
  std::int64_t traced_ns = 0;
  bool identical = true;
  std::uint64_t allocs = 0;
  for (std::size_t e = 0; e < epoch_fps.size(); ++e) {
    auto timed = rounds_system(batch_seed(opt.seed, e), 1, true);
    timed->run_rounds(1);
    auto protocol_ns = [&timed](std::int64_t TimedProcess::*field) {
      std::int64_t sum = 0;
      for (ProcessId p = 0; p < kRoundsN; ++p) {
        sum += static_cast<TimedProcess&>(timed->process(p)).*field;
      }
      return sum;
    };
    std::int64_t begin_prev = protocol_ns(&TimedProcess::begin_ns);
    std::int64_t end_prev = protocol_ns(&TimedProcess::end_ns);
    const std::uint64_t allocs0 = g_allocs.load();
    g_count_allocs = true;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < epoch_rounds; ++i) {
      Span round("sim.round");
      timed->run_rounds(1);
      const std::int64_t begin = protocol_ns(&TimedProcess::begin_ns);
      const std::int64_t end = protocol_ns(&TimedProcess::end_ns);
      SpanLog::add("protocols.begin_round", begin - begin_prev);
      SpanLog::add("protocols.end_round", end - end_prev);
      begin_prev = begin;
      end_prev = end;
    }
    traced_ns += now_ns() - t0;
    g_count_allocs = false;
    allocs += g_allocs.load() - allocs0;
    identical =
        identical && history_fingerprint(timed->history()) == epoch_fps[e];
  }
  r.check("rounds: traced histories identical to the untraced ones",
          identical);

  r.rows = span_rows({"protocols.begin_round", "protocols.end_round",
                      "sim.round"});
  r.layer["protocols.begin_round_ms"] = r.rows[0].self_ns * 1e-6 / rounds;
  r.layer["protocols.end_round_ms"] = r.rows[1].self_ns * 1e-6 / rounds;
  r.layer["sim.engine_ms"] = r.rows[2].self_ns * 1e-6 / rounds;
  r.layer["sim.allocs_per_round"] = static_cast<double>(allocs) / rounds;
  r.traced_total_ns = traced_ns;
  r.layer["trace.overhead_share"] = traced_ns * 1e-6 / untraced_ms - 1;

  // The parallel round engine on the first epoch's system: its wall and
  // CPU time per round, and a whole-epoch equality check against 1 lane.
  auto two = rounds_system(batch_seed(opt.seed, 0), lanes2, false);
  two->run_rounds(1);
  std::vector<double> two_ms;
  const double cpu0 = cpu_seconds();
  for (int i = 0; i < epoch_rounds; ++i) {
    const std::int64_t t0 = now_ns();
    two->run_rounds(1);
    two_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.layer["sim.lanes2_cpu_ms"] = (cpu_seconds() - cpu0) * 1e3 / epoch_rounds;
  r.layer["sim.lanes2_round_ms"] = median(two_ms);
  r.check("rounds: first epoch identical at 1 and " + std::to_string(lanes2) +
              " lanes",
          history_fingerprint(two->history()) == epoch_fps[0]);
  return r;
}

// --- svc-batched / svc-faults ------------------------------------------------

struct SvcShape {
  std::int64_t clients = 0;
  std::int64_t ops = 0;  // per client
  int batch = 1;
  Time horizon = 0;
  bool faults = false;
};

svc::SvcConfig svc_config(const SvcShape& shape, std::uint64_t seed) {
  svc::SvcConfig c;
  c.n = 5;
  c.seed = seed;
  c.batch = shape.batch;
  c.clients = shape.clients;
  c.max_ops_per_client = shape.ops;
  c.read_permille = 200;
  c.horizon = shape.horizon;
  c.drain_cap = 30000;
  if (shape.faults) {
    // EXP21a's wave, including its seed: about 5% of other wave seeds
    // leave one write uncompleted after the drain, and this workload must
    // have no failing operations.
    c.plan = svc::corruption_wave(c.n, 7000, 79);
    c.plan.crashes.push_back({4, 12000});
  }
  return c;
}

// Accumulated time of every call into one module channel.
struct ModuleClock {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
};

template <typename Fn>
void time_into(ModuleClock& clock, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  clock.ns += now_ns() - t0;
  ++clock.calls;
}

// What time_into costs per call, measured on an empty body: `outer` is the
// wall time it adds around the body, `inner` the part it records as the
// body's own time.  The replay subtracts both, since pump time is derived
// by subtracting the replay from an untimed run().
struct TimerCost {
  double outer_ns = 0;
  double inner_ns = 0;
};

TimerCost timer_cost() {
  constexpr int kCalls = 1 << 20;
  ModuleClock clock;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kCalls; ++i) time_into(clock, [] {});
  return {static_cast<double>(now_ns() - t0) / kCalls,
          static_cast<double>(clock.ns) / kCalls};
}

// A forwarding Module that times its handlers.  The event simulator is
// single-threaded, so the clock needs no synchronization.
class TimedModule : public Module {
 public:
  TimedModule(std::unique_ptr<Module> inner, ModuleClock* clock)
      : inner_(std::move(inner)), clock_(clock), channel_(inner_->channel()) {}

  std::string channel() const override { return channel_; }
  void on_start(ModuleContext& ctx) override {
    time_into(*clock_, [&] { inner_->on_start(ctx); });
  }
  void on_tick(ModuleContext& ctx) override {
    time_into(*clock_, [&] { inner_->on_tick(ctx); });
  }
  void on_message(ModuleContext& ctx, ProcessId from,
                  const Value& body) override {
    time_into(*clock_, [&] { inner_->on_message(ctx, from, body); });
  }
  Value snapshot() const override { return inner_->snapshot(); }
  void restore(const Value& state) override { inner_->restore(state); }

 private:
  std::unique_ptr<Module> inner_;
  ModuleClock* clock_;
  std::string channel_;
};

enum { kHb, kGfd, kRcons, kModules };

// build_repeated_consensus_system's node stack rebuilt with timed modules,
// proposing exactly what the service's plane memoized, replayed through the
// service's crashes and corruption overlays up to where the service stopped.
// Returns true iff every replica's decision log equals the service's.
bool replay_service(const svc::SvcConfig& config,
                    const svc::KvService& service, Time ran_until,
                    ModuleClock (&clocks)[kModules]) {
  const svc::RequestPlane* plane = &service.plane();
  const InputSource inputs = [plane](ProcessId, std::int64_t instance) {
    const Value* proposal = plane->find_proposal(instance);
    return proposal != nullptr ? *proposal : Value();
  };
  std::vector<const RepeatedConsensus*> rcons;
  std::vector<std::unique_ptr<AsyncProcess>> nodes;
  for (ProcessId p = 0; p < config.n; ++p) {
    auto hb = std::make_unique<HeartbeatFd>(p, config.n, HeartbeatFdConfig{});
    auto gfd = std::make_unique<GossipStrongFd>(p, config.n,
                                                weak_view(hb.get(), p, config.n));
    auto rc = std::make_unique<RepeatedConsensus>(
        p, config.n, inputs, full_view(gfd.get()),
        StabilizationOptions::ftss());
    rcons.push_back(rc.get());
    std::vector<std::unique_ptr<Module>> modules;
    modules.push_back(std::make_unique<TimedModule>(std::move(hb), &clocks[kHb]));
    modules.push_back(
        std::make_unique<TimedModule>(std::move(gfd), &clocks[kGfd]));
    modules.push_back(
        std::make_unique<TimedModule>(std::move(rc), &clocks[kRcons]));
    nodes.push_back(std::make_unique<ModuleHost>(std::move(modules)));
  }
  AsyncConfig async = config.async;
  async.seed = config.seed;
  EventSimulator sim(async, std::move(nodes));
  for (const auto& crash : config.plan.crashes) {
    sim.schedule_crash(crash.process, crash.at);
  }
  std::vector<svc::SvcFaultPlan::Corruption> pending = config.plan.corruptions;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  // KvService::step_to without the pump: the same run_until boundaries and
  // the same overlay injection.
  auto step_to = [&](Time t) {
    sim.run_until(t);
    while (!pending.empty() && pending.front().at <= t) {
      const auto c = pending.front();
      pending.erase(pending.begin());
      if (sim.crashed(c.process) || c.pattern == CorruptionPattern::kNone) {
        continue;
      }
      Rng rng(c.seed);
      Value host = sim.process(c.process).snapshot_state();
      const Value overlay =
          svc::corrupt_host_state(c.pattern, c.process, config.n, rng);
      if (overlay.is_map()) {
        for (const auto& [channel, state] : overlay.as_map()) {
          host[channel] = state;
        }
      }
      sim.process(c.process).restore_state(host);
    }
  };
  Time t = 0;
  while (t < config.horizon) {
    t = std::min<Time>(t + config.pump_interval, config.horizon);
    step_to(t);
  }
  while (t < ran_until) {
    t = std::min<Time>(t + config.pump_interval,
                            config.horizon + config.drain_cap);
    step_to(t);
  }

  for (ProcessId p = 0; p < config.n; ++p) {
    const auto& want = repeated_view(service.sim(), p)->decisions();
    const auto& got = rcons[p]->decisions();
    if (want.size() != got.size()) return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i].instance != got[i].instance || want[i].value != got[i].value ||
          want[i].at_time != got[i].at_time) {
        return false;
      }
    }
  }
  return true;
}

// Every decided value re-applied, in instance order, to a fresh store per
// live replica: the KvStore share of the pump.
void reapply_decisions(const svc::KvService& service, int n) {
  for (ProcessId p = 0; p < n; ++p) {
    if (service.sim().crashed(p)) continue;
    std::map<std::int64_t, const Value*> by_instance;
    for (const AsyncDecision& d : repeated_view(service.sim(), p)->decisions()) {
      by_instance.emplace(d.instance, &d.value);
    }
    svc::KvStore store;
    for (const auto& [instance, value] : by_instance) {
      store.apply_decision(*value);
    }
  }
}

struct SvcCell {
  std::uint64_t seed = 0;
  std::int64_t wall_ns = 0;  // run() + report()
};

RunResult run_svc(const Options& opt, SvcShape shape) {
  RunResult r;
  r.layer["util.pool_first_sweep_lanes"] = 0;  // single-threaded
  if (opt.smoke) {
    shape.clients = std::max<std::int64_t>(10, shape.clients / 100);
    shape.ops = std::min<std::int64_t>(shape.ops, 2);
  }

  std::vector<SvcCell> cells;
  bool converged = true;
  double instances = 0, commands = 0, retransmitted = 0, skipped = 0,
         dirty = 0, ticks = 0, messages = 0, ops = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  for (Budget budget(opt.budget(), 1); budget.more(cells.size());) {
    SvcCell cell;
    cell.seed = batch_seed(opt.seed, cells.size());
    std::int64_t t0 = now_ns();
    svc::KvService service(svc_config(shape, cell.seed));
    r.setup_s.push_back(seconds_since(t0));
    t0 = now_ns();
    service.run();
    const svc::SvcReport report = service.report();
    cell.wall_ns = now_ns() - t0;
    const double cell_ops = static_cast<double>(report.requests_completed +
                                                report.reads_served);
    r.rates.push_back(cell_ops / (cell.wall_ns * 1e-9));
    r.attempted += report.requests_submitted + report.reads_served +
                   report.reads_rejected_stale;
    r.failed += report.reads_rejected_stale +
                (report.requests_submitted - report.requests_completed);
    converged = converged && report.converged_full && report.clean_from;
    instances += report.instances_decided;
    commands += report.commands_decided;
    retransmitted += report.commands_retransmitted;
    skipped += report.instances_skipped;
    dirty += report.dirty_instances;
    ticks += report.ran_until;
    messages += service.sim().messages_sent();
    ops += cell_ops;
    cells.push_back(cell);
  }
  r.layer["util.cpu_per_wall"] =
      (cpu_seconds() - cpu0) / seconds_since(wall0);
  r.check("svc: every cell's survivor stores converged with a clean suffix",
          converged);
  // Long cells: top the set-up samples up with constructions alone.
  for (std::uint64_t k = 0; r.setup_s.size() < kSetups; ++k) {
    const std::int64_t t0 = now_ns();
    svc::KvService service(
        svc_config(shape, batch_seed(opt.seed, cells.size() + k)));
    r.setup_s.push_back(seconds_since(t0));
  }
  if (!opt.traced()) return r;

  const double n_cells = static_cast<double>(cells.size());
  r.layer["consensus.instances"] = instances / n_cells;
  r.layer["svc.cmds_per_instance"] = instances > 0 ? commands / instances : 0;
  r.layer["svc.retransmitted"] = retransmitted / n_cells;
  r.layer["svc.instances_skipped"] = skipped / n_cells;
  r.layer["svc.dirty_instances"] = dirty / n_cells;
  r.layer["svc.virtual_ticks"] = ticks / n_cells;
  r.layer["async.msgs_per_op"] = messages / ops;

  ModuleClock clocks[kModules];
  std::int64_t run_ns = 0, report_ns = 0, replay_ns = 0, apply_ns = 0;
  std::int64_t untraced_ns = 0;
  bool identical = true;
  for (const SvcCell& cell : cells) {
    const svc::SvcConfig config = svc_config(shape, cell.seed);
    svc::KvService service(config);
    std::int64_t t0 = now_ns();
    spanned("svc.run", [&] { service.run(); });
    run_ns += now_ns() - t0;
    t0 = now_ns();
    const svc::SvcReport report =
        spanned("svc.report", [&] { return service.report(); });
    report_ns += now_ns() - t0;
    untraced_ns += cell.wall_ns;

    t0 = now_ns();
    identical = spanned("svc.replay", [&] {
                  return replay_service(config, service, report.ran_until,
                                        clocks);
                }) &&
                identical;
    replay_ns += now_ns() - t0;
    t0 = now_ns();
    spanned("svc.kv_apply", [&] { reapply_decisions(service, config.n); });
    apply_ns += now_ns() - t0;
  }
  r.check("svc: replayed node stacks reproduce every replica's decision log",
          identical);

  // Timer overhead out: each handler's recorded time, and the replay's wall.
  const TimerCost cost = timer_cost();
  std::int64_t calls = 0, module_ns = 0;
  std::int64_t handler_ns[kModules];
  for (int m = 0; m < kModules; ++m) {
    handler_ns[m] = clocks[m].ns - std::llround(clocks[m].calls * cost.inner_ns);
    calls += clocks[m].calls;
    module_ns += handler_ns[m];
  }
  replay_ns -= std::llround(calls * cost.outer_ns);
  const std::int64_t dispatch_ns = replay_ns - module_ns;
  const std::int64_t pump_ns = run_ns - replay_ns - apply_ns;
  const auto cells_n = static_cast<std::int64_t>(cells.size());
  r.rows = {
      {"async.dispatch (replay - modules)", cells_n, replay_ns, dispatch_ns},
      {"detect.hb", clocks[kHb].calls, handler_ns[kHb], handler_ns[kHb]},
      {"detect.gfd", clocks[kGfd].calls, handler_ns[kGfd], handler_ns[kGfd]},
      {"consensus.rcons", clocks[kRcons].calls, handler_ns[kRcons],
       handler_ns[kRcons]},
      {"svc.kv_apply", cells_n, apply_ns, apply_ns},
      {"svc.pump (run - replay - kv_apply)", cells_n, pump_ns, pump_ns},
      {"svc.report", cells_n, report_ns, report_ns},
  };
  const double us = 1e-3 / ops;
  r.layer["async.dispatch_self_us"] = dispatch_ns * us;
  r.layer["detect.hb_us"] = handler_ns[kHb] * us;
  r.layer["detect.gfd_us"] = handler_ns[kGfd] * us;
  r.layer["consensus.rcons_us"] = handler_ns[kRcons] * us;
  r.layer["svc.kv_apply_us"] = apply_ns * us;
  r.layer["svc.pump_self_us"] = pump_ns * us;
  r.layer["svc.report_us"] = report_ns * us;
  r.traced_total_ns = run_ns + report_ns;
  r.layer["trace.overhead_share"] =
      static_cast<double>(run_ns + report_ns) / static_cast<double>(untraced_ns) -
      1;
  return r;
}

// --- main --------------------------------------------------------------------

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"check-explore", run_check},
    {"conform-sweep", run_conform},
    {"rounds-1024", run_rounds},
    {"svc-batched",
     [](const Options& o) {
       return run_svc(o, SvcShape{20000, 10, 1024, 30000, false});
     }},
    {"svc-faults",
     [](const Options& o) {
       return run_svc(o, SvcShape{100, 5, 1, 20000, true});
     }},
};

Value host_context(const Options& opt) {
  Value c;
  c["nproc"] = Value(static_cast<std::int64_t>(hardware_lanes()));
  c["compiler"] = Value(FTSS_BENCH_COMPILER);
  c["build_type"] = Value(FTSS_BENCH_BUILD_TYPE);
  c["ftss_avx2"] = Value(static_cast<bool>(FTSS_BENCH_AVX2));
  __builtin_cpu_init();
  c["cpu_avx2"] = Value(__builtin_cpu_supports("avx2") != 0);
  c["git_sha"] = Value(FTSS_BENCH_GIT_SHA);
  c["sweep_jobs"] = Value(static_cast<std::int64_t>(
      opt.workload == "check-explore" ? std::min(2u, hardware_lanes()) : 1));
  c["workload"] = Value(opt.workload);
  c["seed"] = Value(static_cast<std::int64_t>(opt.seed));
  c["seconds"] = Value(bench::fmt(opt.seconds));
  return c;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: ftss_bench --workload NAME --seed S [--seconds T] "
               "[--json F] [--trace-out DIR] [--smoke]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

int run_main(int argc, char** argv) {
  bench::JsonEmitter emitter("ftss_bench", &argc, argv);  // strips --json F
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage();
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !(opt.seconds > 0)) {
    usage();
    return 2;
  }
  if (opt.traced()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_out, ec);
    if (ec) {
      std::fprintf(stderr, "ftss_bench: cannot create %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
  }

  const Value context = host_context(opt);
  bench::Table host("host context", {"key", "value"});
  for (const auto& [key, value] : context.as_map()) {
    host.add_row({key, value.is_string() ? value.as_string() : value.to_string()});
  }
  host.print();

  RunResult result = workload->run(opt);

  std::map<std::string, double> values = result.layer;
  values["setup_s"] = median(result.setup_s);
  values["peak_rss_mb"] = peak_rss_mb();
  values["ops_per_s"] = percentile(result.rates, 90);

  bench::Table e2e(opt.workload + ": end-to-end (untraced, " +
                       std::to_string(result.rates.size()) + " batches, " +
                       std::to_string(result.setup_s.size()) + " set-ups)",
                   {"metric", "unit", "value"});
  for (const MetricSpec& m : kEndToEnd) {
    e2e.add_row({m.name, m.unit, num(values[m.name])});
  }
  e2e.add_row({"attempted", "count", bench::fmt(result.attempted)});
  e2e.add_row({"failed", "count", bench::fmt(result.failed)});
  e2e.print();

  if (opt.traced()) {
    bench::Table layers(opt.workload + ": per-layer attribution (traced)",
                        {"layer", "count", "total ms", "self ms", "share"});
    const double total = static_cast<double>(result.traced_total_ns);
    std::int64_t attributed = 0;
    for (const LayerRow& row : result.rows) {
      layers.add_row({row.name, bench::fmt(row.count),
                      bench::fmt(row.total_ns * 1e-6),
                      bench::fmt(row.self_ns * 1e-6),
                      bench::fmt(100.0 * row.self_ns / total) + "%"});
      attributed += row.self_ns;
    }
    const std::int64_t rest = result.traced_total_ns - attributed;
    layers.add_row({"unattributed", "", "", bench::fmt(rest * 1e-6),
                    bench::fmt(100.0 * rest / total) + "%"});
    layers.add_row({"traced total", "", bench::fmt(total * 1e-6), "", "100%"});
    layers.print();
    values["trace.unattributed_share"] = rest / total;

    bench::Table per_layer(opt.workload + ": per-layer metrics",
                           {"metric", "unit", "value"});
    for (const MetricSpec& m : kPerLayer) {
      per_layer.add_row({m.name, m.unit, num(values[m.name])});
    }
    per_layer.print();
    const std::string spans = opt.trace_out + "/spans.jsonl";
    result.check("spans written to " + spans, SpanLog::write_jsonl(spans));
  }

  bench::Table checks(opt.workload + ": correctness checks", {"check", "pass"});
  for (const auto& [name, ok] : result.checks) {
    checks.add_row({name, bench::pass(ok)});
    emitter.add_check(name, ok);
  }
  checks.print();

  Value doc;
  doc["context"] = context;
  emitter.set_metrics(doc);
  const int emit_status = emitter.finish();

  // The result line: every end-to-end metric untraced, every per-layer
  // metric traced.
  bool finite = true;
  std::string metrics;
  auto emit = [&](const MetricSpec& m) {
    const double v = values[m.name];
    finite = finite && std::isfinite(v);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name,
                  std::isfinite(v) ? v : 0.0, m.unit);
    metrics += buf;
  };
  if (opt.traced()) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  const bool correct = result.correct() && finite && emit_status == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ftss::perf

int main(int argc, char** argv) { return ftss::perf::run_main(argc, argv); }
