// Adversary generators: seeded random TrialPlans.
//
// Every random choice derives from the single trial seed, so a trial is
// fully reproducible from (generator config, seed) and the sampled plan can
// be serialized, replayed and shrunk independently of the generator.
//
// Every sampled system has n ∈ [3, 8] processes.  What gets sampled, per
// mode:
//  * round-agreement (sync):  up to n-1 faulty processes mixing crash /
//    send-omission / receive-omission (random onset rounds, windows, peers,
//    drop probabilities), round-counter and garbage corruption of most
//    processes.  Checked against the strict Theorem 3 obligation.
//  * round-agreement-jitter:  the same under max_extra_delay ∈ [1, 3],
//    with fault windows bounded so the history has a judgeable tail.
//  * compiled:  a random protocol_suite() protocol under crash faults,
//    receive-omission faults and consistent (full-broadcast) send-omission
//    windows — the general-omission shapes a Figure-2 style Π tolerates —
//    plus arbitrary corruption.  Selective per-peer send omission is
//    excluded: Π only ft-solves Σ for crash-consistent failures, so those
//    schedules void the guarantee by construction (the guarantee being
//    quantified over F(H,Π) with |F| ≤ f of Π's failure model).
#pragma once

#include <cstdint>

#include "check/plan.h"

namespace ftss {

struct AdversaryConfig {
  bool allow_sync = true;
  bool allow_jitter = true;
  bool allow_compiled = true;
};

// Samples one trial plan deterministically from `trial_seed`.  `weakened`
// selects which protocol implementation the trial will run (and biases the
// sampler toward schedules able to expose that weakening).
TrialPlan sample_trial(const AdversaryConfig& config, WeakenedKind weakened,
                       std::uint64_t trial_seed);

// The i-th trial seed of an explorer run (splitmix64 over the run seed).
std::uint64_t trial_seed_for(std::uint64_t run_seed, int index);

}  // namespace ftss
