// Assembly of complete asynchronous nodes and evaluation of consensus runs.
//
// Each node is a ModuleHost stacking:
//   HeartbeatFd  →  (◇W view: weakened to a single witness, or full)  →
//   GossipStrongFd (Figure 4)  →  CtConsensus (baseline or FTSS).
// The consensus module consults the Figure 4 detector's output (◇S); the
// baseline configuration can alternatively consult the heartbeat detector
// directly, which isolates the consensus-layer comparison in EXP6.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "async/event_sim.h"
#include "async/module.h"
#include "consensus/ct_consensus.h"
#include "consensus/repeated_consensus.h"
#include "detect/gossip_fd.h"
#include "detect/heartbeat_fd.h"

namespace ftss {

struct ConsensusSystemConfig {
  int n = 3;
  AsyncConfig async;
  StabilizationOptions stabilization = StabilizationOptions::ftss();
  // Expose the underlying detector to Figure 4 only at the per-target
  // witness (strict ◇W); with false the transformation receives the full
  // ◇P-quality view.
  bool weaken_detector = true;
  std::vector<Value> inputs;  // one per process
};

// Builds the simulator with one assembled node per process.
std::unique_ptr<EventSimulator> build_consensus_system(
    const ConsensusSystemConfig& config);

// Same node stack but with RepeatedConsensus on top; `inputs` supplies each
// process's proposal per instance (the config's inputs vector is unused).
std::unique_ptr<EventSimulator> build_repeated_consensus_system(
    const ConsensusSystemConfig& config, InputSource inputs);

// Module accessors (valid for simulators built by build_consensus_system).
const CtConsensus* consensus_view(const EventSimulator& sim, ProcessId p);
const RepeatedConsensus* repeated_view(const EventSimulator& sim, ProcessId p);
const GossipStrongFd* strong_fd_view(const EventSimulator& sim, ProcessId p);
const HeartbeatFd* heartbeat_view(const EventSimulator& sim, ProcessId p);

// --- Outcome evaluation -------------------------------------------------------

struct ConsensusOutcome {
  int correct_count = 0;
  int decided_count = 0;          // among correct processes
  bool all_correct_decided = false;
  bool agreement = false;         // all correct decisions equal
  bool validity = false;          // decision is some process's input
  Value decision;                 // first correct decision
  std::optional<Time> last_decision_time;  // max over correct processes
};

// `inputs` are the proposals (for the validity check); faulty = crashed.
ConsensusOutcome evaluate_consensus(const EventSimulator& sim,
                                    const std::vector<Value>& inputs);

// --- Repeated-consensus (Σ⁺) evaluation ------------------------------------

struct AsyncInstanceOutcome {
  std::int64_t instance = 0;
  int deciders = 0;    // correct processes with a log entry for it
  bool agreement = false;
  bool validity = false;  // decision ∈ { inputs(p, instance) : p }
  Value decision;
  Time first_time = 0;
  Time last_time = 0;
};

struct RepeatedAsyncAnalysis {
  std::vector<AsyncInstanceOutcome> instances;  // ordered by instance id

  // Smallest instance id from which every later decided instance (and
  // itself) has agreement + validity + full coverage by the given quorum of
  // correct processes; nullopt if even the last one is dirty.
  std::optional<std::int64_t> clean_from(int correct_count) const;
  int clean_count(int correct_count) const;
};

// Instances first decided after `cutoff` are excluded: their DECIDE
// messages may still be in flight when the simulation stops, so their
// decider counts are not meaningful.  Pass sim.now() minus a few delay
// bounds; <= 0 means "no cutoff".
RepeatedAsyncAnalysis analyze_repeated_async(const EventSimulator& sim,
                                             const InputSource& inputs,
                                             Time cutoff = 0);

// --- Systemic-failure patterns for EXP6 -----------------------------------
//
// Node states to inject with EventSimulator::corrupt_state.  Decision flags
// are never corrupted (see ct_consensus.h: a corrupted decision is
// indistinguishable from a completed reliable broadcast and is outside the
// recoverable state).
enum class CorruptionPattern {
  kNone,
  // "Every process believes it already sent its phase messages" — the
  // deadlock scenario the paper's re-send rule exists for.
  kPhaseFlags,
  // Wildly diverging round counters — the scenario the superimposed round
  // agreement exists for.
  kRoundCounters,
  // Detector state scrambled: everyone believed dead with large num[],
  // heartbeat timestamps/timeouts random.
  kDetector,
  // All of the above plus random garbage in every remaining field.
  kFull,
};

const char* corruption_pattern_name(CorruptionPattern pattern);

Value make_corrupt_state(CorruptionPattern pattern, ProcessId p, int n,
                         Rng& rng);

}  // namespace ftss
