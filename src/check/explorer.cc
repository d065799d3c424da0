#include "check/explorer.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>

#include "check/shrink.h"
#include "check/trial_build.h"
#include "obs/flight.h"
#include "util/fnv.h"
#include "util/parallel.h"

namespace ftss {

namespace {

constexpr int kShrinkBudget = 400;  // candidate executions per failure

std::set<std::string> oracle_set(const TrialEvaluation& eval) {
  std::set<std::string> names;
  for (const auto& v : eval.violations) names.insert(v.oracle);
  return names;
}

bool is_subset(const std::set<std::string>& sub,
               const std::set<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

void fold_coverage(const TrialPlan& plan, Coverage& cov) {
  switch (plan.mode) {
    case TrialMode::kRoundAgreementSync:
      ++cov.sync;
      break;
    case TrialMode::kRoundAgreementJitter:
      ++cov.jitter;
      break;
    case TrialMode::kCompiled:
      ++cov.compiled;
      break;
  }
  for (const auto& f : plan.faults) {
    switch (f.kind) {
      case FaultSpec::Kind::kCrash:
        ++cov.crash;
        break;
      case FaultSpec::Kind::kSendOmission:
        ++cov.send_omission;
        break;
      case FaultSpec::Kind::kReceiveOmission:
        ++cov.receive_omission;
        break;
    }
  }
  for (const auto& c : plan.corruptions) {
    if (c.kind == CorruptionSpec::Kind::kClock) {
      ++cov.clock_corruptions;
    } else {
      ++cov.garbage_corruptions;
    }
  }
  if (plan.faults.empty()) ++cov.fault_free_trials;
}

}  // namespace

TrialResult run_trial(const TrialPlan& plan) {
  return run_trial(plan, TrialRunOptions{});
}

TrialResult run_trial(const TrialPlan& plan, const TrialRunOptions& options) {
  const std::int64_t start_ns = FlightRecorder::now_ns();
  TrialResult result;
  result.plan = plan;

  std::string error;
  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan, &error);
  if (procs.empty()) {
    result.evaluation.violations.push_back(Violation{"compiled-setup", error});
    return result;
  }

  SyncConfig config = trial_sync_config(plan);
  config.record_states = options.record_states;
  SyncSimulator sim(config, std::move(procs));
  sim.set_trace_sink(options.trace);
  configure_trial(sim, plan);
  sim.run_rounds(plan.rounds);
  result.evaluation = evaluate_trial(sim, plan);
  if (options.history_out != nullptr) *options.history_out = sim.history();

  MetricsRegistry reg;
  record_history_metrics(sim.history(), reg);
  reg.add("trials");
  reg.add(std::string("trials_mode_") + to_string(plan.mode), 1);
  if (!result.evaluation.ok()) reg.add("trials_failing");
  for (const auto& v : result.evaluation.violations) {
    reg.add("violations_" + v.oracle);
  }
  if (result.evaluation.stabilization) {
    reg.observe("stabilization_latency", *result.evaluation.stabilization,
                stabilization_latency_bounds());
  }
  // Wall-clock side tape: trial_ns is a wall_clock histogram (outside the
  // snapshot's stable fingerprint) and the flight recorder gets one span
  // per trial plus an instant per failing trial, so a dump taken at
  // failure time shows which trials ran and which one tripped the oracle.
  reg.observe_nanos("trial_ns", FlightRecorder::now_ns() - start_ns);
  result.metrics = reg.snapshot();
  FlightRecorder::span(FlightCat::kTrial,
                       static_cast<std::int64_t>(plan.trial_seed), start_ns);
  if (!result.evaluation.ok()) {
    FlightRecorder::instant(
        FlightCat::kOracle,
        static_cast<std::int64_t>(result.evaluation.violations.size()),
        static_cast<std::int64_t>(plan.trial_seed));
  }
  return result;
}

ShrinkResult shrink_trial(const TrialResult& failing, int budget) {
  const std::set<std::string> original = oracle_set(failing.evaluation);
  // A candidate is accepted iff it still fails AND its violated-oracle set
  // is a subset of the original's — shrinking must not drift into a
  // different failure mode.
  const PlanShrinkResult s = shrink_plan(
      failing.plan,
      [&original](const TrialPlan& cand) {
        const TrialResult r = run_trial(cand);
        return !r.evaluation.ok() &&
               is_subset(oracle_set(r.evaluation), original);
      },
      budget);
  return ShrinkResult{s.plan, s.steps_tried, s.steps_accepted};
}

ExplorerReport explore(const ExplorerConfig& config) {
  ExplorerReport report;
  report.trials = config.trials;

  const std::vector<TrialResult> results = parallel_sweep<TrialResult>(
      static_cast<std::size_t>(std::max(0, config.trials)),
      [&config](std::size_t i) {
        const std::uint64_t seed =
            trial_seed_for(config.seed, static_cast<int>(i));
        return run_trial(
            sample_trial(config.adversary, config.weakened, seed));
      },
      config.jobs);

  std::uint64_t fp = kFnv1aBasis;
  std::vector<std::pair<double, NearMiss>> misses;
  for (int i = 0; i < static_cast<int>(results.size()); ++i) {
    const TrialResult& r = results[i];
    fold_coverage(r.plan, report.coverage);
    report.metrics.merge(r.metrics);

    fp = fnv1a_u64(fp, r.plan.trial_seed);
    fp = fnv1a_u64(fp, r.evaluation.ok() ? 1 : 2);
    for (const auto& v : r.evaluation.violations) fp = fnv1a_bytes(fp, v.oracle);
    if (r.evaluation.stabilization) {
      fp = fnv1a_u64(fp, static_cast<std::uint64_t>(*r.evaluation.stabilization) + 3);
    }

    if (!r.evaluation.ok()) {
      ++report.failing_trials;
      if (static_cast<int>(report.failures.size()) < config.max_failures) {
        FailureReport f;
        f.index = i;
        f.original = r.plan;
        if (config.shrink) {
          ShrinkResult s = shrink_trial(r, kShrinkBudget);
          f.shrunk = s.plan;
          f.shrink_steps = s.steps_accepted;
          f.violations = run_trial(f.shrunk).evaluation.violations;
        } else {
          f.shrunk = r.plan;
          f.violations = r.evaluation.violations;
        }
        report.failures.push_back(std::move(f));
      }
    } else if (r.evaluation.stabilization && r.evaluation.bound > 0) {
      const double score =
          static_cast<double>(*r.evaluation.stabilization) /
          static_cast<double>(r.evaluation.bound);
      misses.emplace_back(
          score, NearMiss{i, r.plan.trial_seed, r.plan.mode,
                          *r.evaluation.stabilization, r.evaluation.bound});
    }
  }

  std::stable_sort(misses.begin(), misses.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < misses.size() && i < 5; ++i) {
    report.near_misses.push_back(misses[i].second);
  }
  report.fingerprint = fp;
  return report;
}

std::string ExplorerReport::summary() const {
  std::ostringstream os;
  os << "adversary explorer: " << trials << " trials, " << failing_trials
     << " failing\n";
  os << "  modes: round-agreement " << coverage.sync << ", jitter "
     << coverage.jitter << ", compiled " << coverage.compiled << "\n";
  os << "  fault specs: crash " << coverage.crash << ", send-omission "
     << coverage.send_omission << ", receive-omission "
     << coverage.receive_omission << " (fault-free trials "
     << coverage.fault_free_trials << ")\n";
  os << "  corruptions: clock " << coverage.clock_corruptions << ", garbage "
     << coverage.garbage_corruptions << "\n";
  os << "  fingerprint: 0x" << std::hex << std::setfill('0') << std::setw(16)
     << fingerprint << std::dec << std::setfill(' ') << "\n";
  if (!near_misses.empty()) {
    os << "  near misses (stabilization/bound):\n";
    for (const auto& m : near_misses) {
      os << "    trial " << m.index << " seed " << m.trial_seed << " ["
         << to_string(m.mode) << "]: " << m.stabilization << "/" << m.bound
         << "\n";
    }
  }
  for (const auto& f : failures) {
    os << "  FAILURE at trial " << f.index << " (shrunk by " << f.shrink_steps
       << " steps, " << f.shrunk.faults.size() << " faults, "
       << f.shrunk.corruptions.size() << " corruptions):\n";
    os << f.shrunk.describe();
    for (const auto& v : f.violations) {
      os << "    [" << v.oracle << "] " << v.detail << "\n";
    }
    os << "    replay: " << f.shrunk.to_value().to_string() << "\n";
  }
  return os.str();
}

}  // namespace ftss
