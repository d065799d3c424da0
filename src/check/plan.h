// Replayable adversary trial plans.
//
// A TrialPlan is the complete, declarative description of one adversarial
// trial: which system runs (Figure 1 round agreement, the same under
// delivery jitter, or a Figure 3 compiled protocol), which processes fail
// and how (crash / send-omission / receive-omission with onset rounds,
// windows and drop probabilities), which systemic corruptions are injected
// (random garbage or a targeted round-counter value), plus the simulator
// seed that fixes every remaining random choice (delivery jitter,
// probabilistic drops).  A plan therefore replays bit-for-bit: the explorer
// prints shrunk failing plans as JSON, and tests/check_regressions_test.cc
// pins them verbatim.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/types.h"
#include "util/value.h"

namespace ftss {

enum class TrialMode {
  kRoundAgreementSync,    // Figure 1, perfectly synchronous (Theorem 3 oracle)
  kRoundAgreementJitter,  // Figure 1 under delivery jitter (EXP10 oracle)
  kCompiled,              // Figure 3 compiled protocol (Theorem 4 + Σ⁺ oracle)
};

// Deliberate protocol weakenings used to validate that the explorer's
// oracles have teeth: each must be caught and shrunk to a tiny reproducer.
enum class WeakenedKind {
  kNone,
  kRoundAgreementMaxRule,  // Figure 1 adopting max instead of max+1
  kCompilerNoRoundTags,    // Figure 3 with the ROUND-tag filter disabled
};

struct FaultSpec {
  static constexpr Round kNoEnd = std::numeric_limits<Round>::max();

  enum class Kind { kCrash, kSendOmission, kReceiveOmission };

  ProcessId process = 0;
  Kind kind = Kind::kCrash;
  Round onset = 1;       // crash round, or first round of the omission window
  Round until = kNoEnd;  // last round of the omission window (inclusive)
  ProcessId peer = OmissionRule::kAllPeers;  // omissions only
  int permille = 1000;   // drop probability in 1/1000 (1000 = always)
};

struct CorruptionSpec {
  enum class Kind { kClock, kGarbage };

  ProcessId process = 0;
  Kind kind = Kind::kClock;
  // kClock: the corrupted round-counter value c_p.
  // kGarbage: magnitude of integers inside the random value.
  std::int64_t magnitude = 0;
  std::uint64_t value_seed = 0;  // kGarbage: generator seed
};

struct TrialPlan {
  std::uint64_t trial_seed = 1;  // simulator seed (jitter, probabilistic drops)
  TrialMode mode = TrialMode::kRoundAgreementSync;
  WeakenedKind weakened = WeakenedKind::kNone;
  std::string protocol;  // kCompiled only: a protocol_suite() name
  int n = 3;
  int f_budget = 1;  // kCompiled only: the protocol's crash budget f
  int max_extra_delay = 0;
  int rounds = 40;
  std::vector<FaultSpec> faults;
  std::vector<CorruptionSpec> corruptions;

  // The merged FaultPlan for process p (a process may carry several specs).
  FaultPlan fault_plan_for(ProcessId p) const;

  // Round-trip serialization (Value::to_string / Value::parse compatible).
  Value to_value() const;
  static std::optional<TrialPlan> from_value(const Value& v);

  // Human-readable multi-line rendering for failure reports.
  std::string describe() const;
};

// The plan in the JSON file at `path` (as ftss_check --dump-trial prints
// it), or nullopt with *error set to why not: "cannot open <path>",
// "<path> is not valid plan JSON" or "<path> is not a well-formed plan".
std::optional<TrialPlan> load_plan_file(const std::string& path,
                                        std::string* error);

// The concrete corrupted state a CorruptionSpec injects.
Value corruption_value(const CorruptionSpec& spec);

const char* to_string(TrialMode mode);
const char* to_string(WeakenedKind kind);
std::optional<TrialMode> parse_trial_mode(const std::string& s);
std::optional<WeakenedKind> parse_weakened_kind(const std::string& s);

}  // namespace ftss
