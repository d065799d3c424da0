// Conformance sweep: seeded adversary plans, every metamorphic and
// differential oracle per plan, deterministic aggregation, and automatic
// shrinking of divergent plans to pinned reproducers.
//
// This is the test-the-testers counterpart of check/explorer.h: the explorer
// asks "does the protocol satisfy the paper's predicates?", the conformance
// sweep asks "do our engines and observability layers agree with each other
// about what happened?".  A divergence here is a harness/simulator bug, not
// a protocol bug.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/adversary.h"
#include "conform/metamorphic.h"

namespace ftss {

struct ConformConfig {
  std::uint64_t seed = 42;
  int trials = 240;
  unsigned jobs = 0;  // sweep threads (0 = one per hardware thread)
  AdversaryConfig adversary;
  bool shrink = true;
  int max_failures = 3;  // divergent plans kept (and shrunk)
};

// The plan rewrite that makes the permutation oracle applicable: jitter
// zeroed and omissions derandomized (both consume RNG draws in process-id
// order, so renaming legitimately changes them).  Compiled-mode plans stay
// inapplicable — their protocol inputs are id-dependent by design.
TrialPlan normalize_for_permutation(const TrialPlan& plan);

// The standard oracle battery for one plan: lockstep differential,
// transport differential (sockets + wire codec), run-extension, permutation
// (on the normalized plan, under a rotation), tracing transparency, COW
// transparency — in that order.
std::vector<OracleResult> run_conformance(const TrialPlan& plan);

struct OracleTally {
  int ran = 0;
  int skipped = 0;  // inapplicable for the sampled plan
  int failed = 0;
};

struct ConformFailure {
  int index = 0;        // trial index within the sweep
  std::string oracle;   // first oracle that diverged
  TrialPlan original;
  TrialPlan shrunk;
  std::vector<Divergence> divergences;  // of the shrunk plan
  int shrink_steps = 0;                 // accepted reductions
};

struct ConformReport {
  int trials = 0;
  int divergent_trials = 0;
  std::map<std::string, OracleTally> oracles;
  // Trials per system under test: a protocol_suite() name for compiled
  // plans, the TrialMode name otherwise.
  std::map<std::string, int> systems;
  std::vector<ConformFailure> failures;
  // Deterministic fold over every per-trial outcome (same seed => same
  // fingerprint for any thread count), like the explorer's.
  std::uint64_t fingerprint = 0;

  bool ok() const { return divergent_trials == 0; }
  std::string summary() const;
};

ConformReport conform_sweep(const ConformConfig& config);

}  // namespace ftss
