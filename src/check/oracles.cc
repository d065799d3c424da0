#include "check/oracles.h"

#include <algorithm>
#include <sstream>

#include "core/compiler.h"
#include "core/predicates.h"
#include "protocols/repeated.h"
#include "protocols/suite.h"

namespace ftss {

namespace {

// Whether some rule covers (r, other): the rule licenses that drop.
bool licensed(const std::vector<OmissionRule>& rules, Round r,
              ProcessId other) {
  return std::any_of(rules.begin(), rules.end(), [&](const OmissionRule& o) {
    return o.covers(r, other);
  });
}

// Whether a rule that always drops covers (r, other): the message cannot
// have been delivered.
bool must_drop(const std::vector<OmissionRule>& rules, Round r,
               ProcessId other) {
  return std::any_of(rules.begin(), rules.end(), [&](const OmissionRule& o) {
    return o.probability >= 1.0 && o.covers(r, other);
  });
}

void add(std::vector<Violation>& out, const std::string& oracle,
         std::string detail) {
  out.push_back(Violation{oracle, std::move(detail)});
}

// The send a fate diagnostic names; formatted only once a violation is
// certain, since a passing audit visits every send record of the trial.
std::string describe_send(const SendRecord& sr) {
  std::ostringstream os;
  os << "p" << sr.sender << "->p" << sr.dest << " sent " << sr.sent_round
     << " delivery " << sr.delivery_round;
  return os.str();
}

}  // namespace

// The history must be exactly what the plan licenses: no unexplained drop,
// no unfired must-drop rule, no out-of-range delay, no surprise fault.
void audit_history(const History& h, const TrialPlan& plan,
                   std::vector<Violation>& out) {
  if (h.length() != plan.rounds) {
    std::ostringstream os;
    os << "history has " << h.length() << " rounds, plan says " << plan.rounds;
    add(out, "audit-length", os.str());
    return;
  }
  // What the simulator was told each process may do.
  std::vector<FaultPlan> faults;
  faults.reserve(plan.n);
  for (ProcessId p = 0; p < plan.n; ++p) {
    faults.push_back(plan.fault_plan_for(p));
  }

  for (const auto& rec : h.rounds) {
    for (ProcessId p = 0; p < plan.n; ++p) {
      const std::optional<Round> crash_at = faults[p].crash_at;
      const bool should_live = !crash_at || rec.round < *crash_at;
      if (rec.alive[p] != should_live) {
        std::ostringstream os;
        os << "p" << p << (rec.alive[p] ? " alive" : " dead") << " at round "
           << rec.round << " contradicts crash plan";
        add(out, "audit-crash", os.str());
        return;
      }
    }
    for (const auto& sr : rec.sends) {
      const Round lag = sr.delivery_round - sr.sent_round;
      const Round max_lag = sr.sender == sr.dest ? 0 : plan.max_extra_delay;
      if (lag < 0 || lag > max_lag) {
        std::ostringstream os;
        os << "p" << sr.sender << "->p" << sr.dest << " sent round "
           << sr.sent_round << " delivered round " << sr.delivery_round
           << ", max_extra_delay " << plan.max_extra_delay;
        add(out, "audit-delay", os.str());
        return;
      }
      const FaultPlan& sender = faults[sr.sender];
      const FaultPlan& dest = faults[sr.dest];
      if (sender.crash_at && sr.sent_round >= *sender.crash_at) {
        std::ostringstream os;
        os << "p" << sr.sender << " sent at round " << sr.sent_round
           << " despite crashing at " << *sender.crash_at;
        add(out, "audit-crash", os.str());
        return;
      }
      switch (sr.fate) {
        case Fate::kDroppedBySender:
          if (!licensed(sender.send_omissions, sr.sent_round, sr.dest)) {
            add(out, "audit-omission",
                "unlicensed send drop: " + describe_send(sr));
            return;
          }
          break;
        case Fate::kDestCrashed:
          if (!dest.crash_at || sr.delivery_round < *dest.crash_at) {
            add(out, "audit-crash",
                "message eaten by non-crash: " + describe_send(sr));
            return;
          }
          break;
        case Fate::kDroppedByReceiver:
          if (!licensed(dest.receive_omissions, sr.delivery_round,
                        sr.sender)) {
            add(out, "audit-omission",
                "unlicensed receive drop: " + describe_send(sr));
            return;
          }
          break;
        case Fate::kLostInFlight:
          // Legal only when the scheduled delivery round lies beyond the
          // run: otherwise the message should have resolved inside the
          // history.
          if (sr.delivery_round <= h.length()) {
            add(out, "audit-omission",
                "in-flight flush inside the run: " + describe_send(sr));
            return;
          }
          break;
        case Fate::kFrameCorrupted:
          // Frame corruption only exists on the serialized transport leg; a
          // sync-simulator history claiming it is lying about the model.
          add(out, "audit-omission",
              "frame corruption in an in-memory history: " +
                  describe_send(sr));
          return;
        case Fate::kDelivered:
          if (sr.sender != sr.dest &&
              must_drop(sender.send_omissions, sr.sent_round, sr.dest)) {
            add(out, "audit-omission",
                "must-drop send delivered: " + describe_send(sr));
            return;
          }
          if (sr.sender != sr.dest &&
              must_drop(dest.receive_omissions, sr.delivery_round,
                        sr.sender)) {
            add(out, "audit-omission",
                "must-drop receive delivered: " + describe_send(sr));
            return;
          }
          if (dest.crash_at && sr.delivery_round >= *dest.crash_at) {
            add(out, "audit-crash",
                "delivered to crashed dest: " + describe_send(sr));
            return;
          }
          break;
        case Fate::kUnresolved:
          add(out, "audit-omission",
              "undelivered with no cause: " + describe_send(sr));
          return;
      }
    }
  }

  const std::vector<bool> faulty = h.faulty();
  for (ProcessId p = 0; p < plan.n; ++p) {
    if (faulty[p] && faults[p].empty()) {
      std::ostringstream os;
      os << "p" << p << " manifested a fault but has no plan entry";
      add(out, "audit-faulty", os.str());
    }
  }
}

namespace {

void check_compiled(const SyncSimulator& sim, const TrialPlan& plan,
                    TrialEvaluation& eval) {
  const History& h = sim.history();
  const ProtocolSpec* spec = find_protocol(plan.protocol);
  if (spec == nullptr) {
    add(eval.violations, "compiled-setup",
        "unknown protocol: " + plan.protocol);
    return;
  }
  const int final_round = spec->make(plan.f_budget)->final_round();
  const Round base = std::max<Round>(h.last_coterie_change(), 1);
  eval.bound = 2 * final_round + 1;

  // The superimposed Figure 1 clocks still owe the Theorem 3 obligation.
  const FtssCheckResult ra = check_round_agreement_ftss(h, 1);
  if (!ra.ok) add(eval.violations, "theorem3-ftss", ra.violation);

  const InputSource inputs = spec->inputs(plan.n);
  const ValidityPredicate validity = spec->validity(inputs, plan.n);
  const RepeatedAnalysis analysis =
      analyze_repeated(compiled_views(sim), h.faulty(), validity);
  const auto clean_from = analysis.clean_from(/*require_validity=*/true);
  if (!clean_from) {
    std::ostringstream os;
    os << "no clean iteration suffix in " << h.length() << " rounds ("
       << analysis.iterations.size() << " iterations decided)";
    add(eval.violations, "sigma-plus-stabilization", os.str());
    return;
  }
  const Round margin = std::max<Round>(*clean_from - base, 0);
  eval.stabilization = margin;
  if (margin > eval.bound) {
    std::ostringstream os;
    os << "clean only from round " << *clean_from << ", "
       << margin << " rounds after the last coterie change (round "
       << h.last_coterie_change() << "); bound is 2*" << final_round
       << "+1 = " << eval.bound;
    add(eval.violations, "sigma-plus-stabilization", os.str());
  }

  // Suspect soundness, once the run has settled and crossed at least one
  // iteration boundary (which resets corrupted suspect sets): a correct
  // process never suspects a correct process.
  if (h.length() < *clean_from + 2 * final_round) return;
  const std::vector<bool> faulty = h.faulty();
  for (ProcessId p = 0; p < plan.n; ++p) {
    if (faulty[p]) continue;
    const auto* view = dynamic_cast<const CompiledProcess*>(&sim.process(p));
    if (view == nullptr) continue;
    for (ProcessId q : view->suspects()) {
      if (q >= 0 && q < plan.n && !faulty[q]) {
        std::ostringstream os;
        os << "correct p" << p << " suspects correct p" << q
           << " at end of run";
        add(eval.violations, "suspect-soundness", os.str());
      }
    }
  }
}

}  // namespace

std::string TrialEvaluation::describe() const {
  std::ostringstream os;
  for (const auto& v : violations) {
    os << "  [" << v.oracle << "] " << v.detail << "\n";
  }
  return os.str();
}

TrialEvaluation evaluate_trial(const SyncSimulator& sim,
                               const TrialPlan& plan) {
  TrialEvaluation eval;
  const History& h = sim.history();
  audit_history(h, plan, eval.violations);
  if (!eval.violations.empty()) return eval;  // history itself is suspect

  switch (plan.mode) {
    case TrialMode::kRoundAgreementSync: {
      eval.bound = 1;
      const FtssCheckResult r = check_round_agreement_ftss(h, 1);
      if (!r.ok) add(eval.violations, "theorem3-ftss", r.violation);
      eval.stabilization = measure_round_agreement(h).time();
      break;
    }
    case TrialMode::kRoundAgreementJitter: {
      eval.bound = 10 + 4 * plan.max_extra_delay;
      const FtssCheckResult r = check_round_agreement_eventual(h, eval.bound);
      if (!r.ok) {
        const bool inconclusive =
            r.violation.rfind("inconclusive", 0) == 0;
        add(eval.violations,
            inconclusive ? "jitter-inconclusive" : "jitter-stabilization",
            r.violation);
      }
      eval.stabilization = measure_round_agreement(h).time();
      break;
    }
    case TrialMode::kCompiled:
      check_compiled(sim, plan, eval);
      break;
  }
  return eval;
}

}  // namespace ftss
