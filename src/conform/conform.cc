#include "conform/conform.h"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "check/shrink.h"
#include "obs/flight.h"
#include "util/fnv.h"
#include "util/parallel.h"

namespace ftss {

namespace {

constexpr int kShrinkBudget = 200;  // candidate executions per divergent plan

std::vector<ProcessId> rotation(int n) {
  std::vector<ProcessId> perm(n);
  for (int p = 0; p < n; ++p) perm[p] = (p + 1) % n;
  return perm;
}

std::string system_name(const TrialPlan& plan) {
  return plan.mode == TrialMode::kCompiled ? plan.protocol
                                           : to_string(plan.mode);
}

std::set<std::string> divergence_kinds(const std::vector<Divergence>& ds) {
  std::set<std::string> kinds;
  for (const Divergence& d : ds) kinds.insert(d.kind);
  return kinds;
}

struct TrialOutcome {
  TrialPlan plan;
  std::vector<OracleResult> results;
};

}  // namespace

TrialPlan normalize_for_permutation(const TrialPlan& plan) {
  TrialPlan norm = plan;
  norm.max_extra_delay = 0;
  for (FaultSpec& f : norm.faults) f.permille = 1000;
  return norm;
}

namespace {

// The conformance battery, in run order; run_conformance's results and
// flight spans (a = index) follow it, and the shrinker re-runs a failed
// result's entry.  Each oracle names itself in its OracleResult.
using BatteryOracle = OracleResult (*)(const TrialPlan&);
constexpr BatteryOracle kBattery[] = {
    [](const TrialPlan& plan) { return check_lockstep(plan); },
    [](const TrialPlan& plan) { return check_transport(plan); },
    [](const TrialPlan& plan) {
      return check_extension(plan, plan.rounds / 2);
    },
    [](const TrialPlan& plan) {
      return check_permutation(normalize_for_permutation(plan),
                               rotation(plan.n));
    },
    [](const TrialPlan& plan) { return check_trace_transparency(plan); },
    [](const TrialPlan& plan) { return check_cow_transparency(plan); },
};

}  // namespace

std::vector<OracleResult> run_conformance(const TrialPlan& plan) {
  // Each oracle evaluation becomes one flight span (a = oracle index, in
  // battery order) and each divergence an instant, so a dump taken when a
  // sweep fails shows which oracle on which trial blew up and how long the
  // preceding ones took.  Wall clock never reaches the sweep fingerprint.
  const auto timed = [](int index, OracleResult r) {
    if (!r.ok()) {
      FlightRecorder::instant(
          FlightCat::kOracle, index,
          static_cast<std::int64_t>(r.divergences.size()));
    }
    return r;
  };
  std::vector<OracleResult> out;
  const std::int64_t start_ns = FlightRecorder::now_ns();
  std::int64_t t = start_ns;
  const auto mark = [&t](int index) {
    const std::int64_t now = FlightRecorder::now_ns();
    FlightRecorder::span(FlightCat::kOracle, index, t);
    t = now;
  };
  for (int i = 0; i < static_cast<int>(std::size(kBattery)); ++i) {
    out.push_back(timed(i, kBattery[i](plan)));
    mark(i);
  }
  FlightRecorder::span(FlightCat::kTrial,
                       static_cast<std::int64_t>(plan.trial_seed), start_ns);
  return out;
}

ConformReport conform_sweep(const ConformConfig& config) {
  ConformReport report;
  report.trials = std::max(0, config.trials);

  const std::vector<TrialOutcome> outcomes = parallel_sweep<TrialOutcome>(
      static_cast<std::size_t>(report.trials),
      [&config](std::size_t i) {
        TrialOutcome outcome;
        outcome.plan =
            sample_trial(config.adversary, WeakenedKind::kNone,
                         trial_seed_for(config.seed, static_cast<int>(i)));
        outcome.results = run_conformance(outcome.plan);
        return outcome;
      },
      config.jobs);

  std::uint64_t fp = kFnv1aBasis;
  for (int i = 0; i < static_cast<int>(outcomes.size()); ++i) {
    const TrialOutcome& outcome = outcomes[i];
    ++report.systems[system_name(outcome.plan)];
    fp = fnv1a_u64(fp, outcome.plan.trial_seed);

    const OracleResult* first_failure = nullptr;
    for (const OracleResult& r : outcome.results) {
      OracleTally& tally = report.oracles[r.oracle];
      fp = fnv1a_bytes(fp, r.oracle);
      if (!r.applicable) {
        ++tally.skipped;
        fp = fnv1a_u64(fp, 1);
        continue;
      }
      ++tally.ran;
      if (r.ok()) {
        fp = fnv1a_u64(fp, 2);
      } else {
        ++tally.failed;
        fp = fnv1a_u64(fp, 3);
        for (const std::string& kind : divergence_kinds(r.divergences)) {
          fp = fnv1a_bytes(fp, kind);
        }
        if (first_failure == nullptr) first_failure = &r;
      }
    }

    if (first_failure != nullptr) {
      ++report.divergent_trials;
      if (static_cast<int>(report.failures.size()) < config.max_failures) {
        ConformFailure failure;
        failure.index = i;
        failure.oracle = first_failure->oracle;
        failure.original = outcome.plan;
        if (config.shrink) {
          const std::set<std::string> original_kinds =
              divergence_kinds(first_failure->divergences);
          const BatteryOracle rerun =
              kBattery[first_failure - outcome.results.data()];
          const PlanShrinkResult s = shrink_plan(
              outcome.plan,
              [rerun, &original_kinds](const TrialPlan& cand) {
                const OracleResult r = rerun(cand);
                if (!r.applicable || r.ok()) return false;
                const std::set<std::string> kinds =
                    divergence_kinds(r.divergences);
                return std::includes(original_kinds.begin(),
                                     original_kinds.end(), kinds.begin(),
                                     kinds.end());
              },
              kShrinkBudget);
          failure.shrunk = s.plan;
          failure.shrink_steps = s.steps_accepted;
          failure.divergences = rerun(failure.shrunk).divergences;
        } else {
          failure.shrunk = outcome.plan;
          failure.divergences = first_failure->divergences;
        }
        report.failures.push_back(std::move(failure));
      }
    }
  }
  report.fingerprint = fp;
  return report;
}

std::string ConformReport::summary() const {
  std::ostringstream os;
  os << "conformance sweep: " << trials << " trials, " << divergent_trials
     << " divergent\n";
  os << "  systems:";
  for (const auto& [name, count] : systems) {
    os << " " << name << "=" << count;
  }
  os << "\n";
  for (const auto& [name, tally] : oracles) {
    os << "  oracle " << name << ": " << tally.ran << " ran, " << tally.failed
       << " failed, " << tally.skipped << " skipped\n";
  }
  os << "  fingerprint: 0x" << std::hex << std::setfill('0') << std::setw(16)
     << fingerprint << std::dec << std::setfill(' ') << "\n";
  for (const ConformFailure& f : failures) {
    os << "  DIVERGENCE at trial " << f.index << " [" << f.oracle
       << "] (shrunk by " << f.shrink_steps << " steps):\n";
    os << f.shrunk.describe();
    for (const Divergence& d : f.divergences) {
      os << "    " << describe(d) << "\n";
    }
    os << "    replay: " << f.shrunk.to_value().to_string() << "\n";
  }
  return os.str();
}

}  // namespace ftss
