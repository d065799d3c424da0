// Parallel property-based trial driver with failing-schedule shrinking.
//
// explore() samples thousands of TrialPlans (see check/adversary.h), runs
// each on its own single-threaded simulator via util/parallel.h, evaluates
// the invariant oracles (check/oracles.h), and aggregates:
//  * coverage counters — how many trials exercised each mode, fault kind
//    and corruption kind (a run that never injected a crash proves nothing
//    about crashes);
//  * failures — each shrunk to a minimal replayable reproducer;
//  * near misses — passing trials ranked by how much of the theorem's
//    stabilization bound they consumed (the interesting regression pins);
//  * a deterministic fingerprint over every per-trial outcome, so two runs
//    with the same seed are verifiably identical regardless of thread
//    count or interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/adversary.h"
#include "check/oracles.h"
#include "check/plan.h"
#include "obs/metrics.h"

namespace ftss {

class TraceSink;

struct TrialResult {
  TrialPlan plan;
  TrialEvaluation evaluation;
  // Per-trial observability snapshot: history-derived message/coterie
  // counters plus trial outcome counters and the stabilization-latency
  // histogram.  Merging these in trial-index order is the explorer's
  // deterministic aggregate (ExplorerReport::metrics).
  MetricsSnapshot metrics;
};

struct TrialRunOptions {
  TraceSink* trace = nullptr;  // non-owning; receives the run's event stream
  bool record_states = false;  // full state snapshots in the history
  History* history_out = nullptr;  // receives the recorded history if set
};

// Runs one trial end-to-end: builds the system the plan describes (real or
// deliberately weakened), injects corruptions and fault plans, executes
// plan.rounds rounds, evaluates every applicable oracle.
TrialResult run_trial(const TrialPlan& plan);
TrialResult run_trial(const TrialPlan& plan, const TrialRunOptions& options);

struct ShrinkResult {
  TrialPlan plan;        // minimal plan still failing the same way
  int steps_tried = 0;   // candidate executions spent
  int steps_accepted = 0;
};

// Greedy shrink to a fixpoint (or until `budget` candidate executions are
// spent): drop faults and corruptions one at a time, zero the jitter,
// shorten omission windows and the run, derandomize drop probabilities,
// shrink corruption magnitudes and onsets.  A candidate is accepted iff it
// still fails AND its violated-oracle set is a subset of the original's —
// shrinking must not drift into a different failure mode.
ShrinkResult shrink_trial(const TrialResult& failing, int budget);

struct ExplorerConfig {
  std::uint64_t seed = 42;
  int trials = 1000;
  unsigned jobs = 0;  // sweep threads (0 = one per hardware thread)
  AdversaryConfig adversary;
  WeakenedKind weakened = WeakenedKind::kNone;
  bool shrink = true;
  int max_failures = 5;  // failures kept (and shrunk) in the report
};

struct FailureReport {
  int index = 0;  // trial index within the run
  TrialPlan original;
  TrialPlan shrunk;
  std::vector<Violation> violations;  // of the shrunk plan
  int shrink_steps = 0;               // accepted reductions
};

struct NearMiss {
  int index = 0;
  std::uint64_t trial_seed = 0;
  TrialMode mode = TrialMode::kRoundAgreementSync;
  Round stabilization = 0;  // measured
  Round bound = 0;          // the oracle's limit
};

struct Coverage {
  int sync = 0, jitter = 0, compiled = 0;  // trials per mode
  int crash = 0, send_omission = 0, receive_omission = 0;  // fault specs
  int clock_corruptions = 0, garbage_corruptions = 0;
  int fault_free_trials = 0;
};

struct ExplorerReport {
  int trials = 0;
  int failing_trials = 0;
  Coverage coverage;
  std::vector<FailureReport> failures;
  std::vector<NearMiss> near_misses;  // top 5 by stabilization/bound
  std::uint64_t fingerprint = 0;
  // Fold of every trial's MetricsSnapshot in trial-index order; identical
  // (same fingerprint()) for any worker-thread count.
  MetricsSnapshot metrics;

  std::string summary() const;
};

ExplorerReport explore(const ExplorerConfig& config);

}  // namespace ftss
