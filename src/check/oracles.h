// Invariant oracles evaluated over one completed adversary trial.
//
// Two layers of checking:
//  * Universal audits — the executed history must match the plan exactly:
//    every dropped/delayed/crash-eaten message must be licensed by a plan
//    rule, every must-drop rule must have fired, jitter must stay within
//    max_extra_delay, and F(H) must be a subset of the planned faulty set.
//    These catch simulator bugs (the test subsystem checking the harness)
//    and make shrunk plans trustworthy: a plan replays exactly what it says.
//  * Mode oracles — the paper's theorems as executable predicates:
//      round-agreement          Theorem 3: ftss-solves with stab time 1.
//      round-agreement-jitter   EXP10 relaxation: stabilizes within
//                               10 + 4*max_extra_delay of the last
//                               de-stabilizing event.
//      compiled                 Theorem 3 on the superimposed clocks, plus
//                               Theorem 4's Σ⁺ obligation: a clean-forever
//                               suffix of iterations starting within
//                               2*final_round + 1 of the last coterie
//                               change, each iteration complete /
//                               synchronous / agreeing / valid per the
//                               protocol's own spec; plus suspect-set
//                               soundness (no correct process suspects a
//                               correct process once stabilized).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/plan.h"
#include "sim/simulator.h"

namespace ftss {

struct Violation {
  std::string oracle;  // stable identifier, e.g. "theorem3-ftss"
  std::string detail;
};

struct TrialEvaluation {
  std::vector<Violation> violations;
  // Measured stabilization margin vs. the oracle's bound (for near-miss
  // ranking): rounds after the last de-stabilizing event before the mode's
  // property held continuously, and the bound it was checked against.
  std::optional<Round> stabilization;
  Round bound = 0;

  bool ok() const { return violations.empty(); }
  std::string describe() const;
};

// The universal audit alone.  Appends a violation for the first round or
// send record of `h` that `plan` does not license and stops there; when
// every record is licensed, appends one for each manifested fault that has
// no plan entry.  Precondition: `h` was recorded for plan.n processes, so
// every alive vector and every send's sender and dest index 0..plan.n-1.
void audit_history(const History& h, const TrialPlan& plan,
                   std::vector<Violation>& out);

// Evaluates every applicable oracle over the simulator's recorded history.
// The simulator must have executed exactly plan.rounds rounds of the system
// the plan describes.
TrialEvaluation evaluate_trial(const SyncSimulator& sim, const TrialPlan& plan);

}  // namespace ftss
