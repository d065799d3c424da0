// Execution histories (§2.1): the external observer's record of a run.
//
// A round history records, per process, the state at the start of the round
// and the actions (sends, deliveries, failures) taken during it.  The
// Σ-predicate checkers in core/predicates.h are evaluated over these records
// exactly as the paper's definitions quantify over histories.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.h"

namespace ftss {

// What happened to one send: exactly one outcome, as the §2.1 observer
// records it.  The enumerators are in the history differ's sort order
// (conform/diff.cc), so reordering them moves every history fingerprint.
enum class Fate : std::uint8_t {
  kDelivered,
  kDroppedBySender,    // send-omission fault of the sender
  kDroppedByReceiver,  // receive-omission fault of the destination
  kDestCrashed,
  // Jitter-delayed past the final executed round: the message was still in
  // flight when run_rounds returned, so the observer closes its books with
  // this record (delivery_round holds the scheduled round).  The message is
  // NOT consumed — extending the execution with another run_rounds call
  // retracts these records and resolves the messages normally.
  kLostInFlight,
  // The encoded frame failed to decode at the receiver (truncated,
  // bit-flipped, or otherwise mangled in transit) and was rejected with a
  // typed wire error.  Only the transport leg (src/net/) can produce this
  // fate: the in-memory legs never serialize, which is exactly why this
  // fault class was invisible before the wire format existed.
  kFrameCorrupted,
  kUnresolved,  // no writer resolved the send (a reportable oddity)
};
inline constexpr std::size_t kNumFates =
    static_cast<std::size_t>(Fate::kUnresolved) + 1;

// The fate's stable name in differ details and history fingerprints.
constexpr const char* fate_name(Fate f) {
  constexpr const char* kNames[kNumFates] = {
      "delivered",    "dropped-by-sender", "dropped-by-receiver",
      "dest-crashed", "lost-in-flight",    "frame-corrupt",
      "unresolved"};
  return kNames[static_cast<std::size_t>(f)];
}

// The drop cause traces, fault manifestations and Chrome flows carry; a
// delivery has none.
constexpr const char* fate_cause(Fate f) {
  constexpr const char* kCauses[kNumFates] = {
      "",             "send-omission",    "receive-omission",
      "dest-crashed", "in-flight-at-end", "frame-corrupt",
      "unresolved"};
  return kCauses[static_cast<std::size_t>(f)];
}

// One message send attempt and its fate.
struct SendRecord {
  ProcessId sender = -1;
  ProcessId dest = -1;
  Value payload;
  Fate fate = Fate::kUnresolved;
  // Round at which the send was attempted (the sender's begin_round).
  Round sent_round = 0;
  // Round at which the message was (or would have been) delivered; equals
  // the sending round unless the simulator's delivery jitter delayed it.
  Round delivery_round = 0;
};

// The observer's record of one actual round r (1-based).
struct RoundRecord {
  Round round = 0;

  // Per-process facts at the *start* of the round.
  std::vector<bool> alive;                        // not crashed
  std::vector<bool> halted;                       // self-halted (uniform Π)
  // Snapshots, null for a dead process.  Empty when state recording is off
  // (SyncConfig::record_states); the differ and the history fingerprint
  // (conform/diff.h) read an empty column as all-null.
  std::vector<Value> state;
  std::vector<std::optional<Round>> clock;        // c_p^r, if exposed

  std::vector<SendRecord> sends;

  // Per-process §2.4 suspect sets at the start of the round, for processes
  // exposing one (Π⁺; see SyncProcess::suspect_set).  Empty when no process
  // in the system maintains a suspect set or state recording is off.
  std::vector<std::vector<ProcessId>> suspects;

  // Processes whose fault plan has *manifested* (crash occurred or an
  // omission actually dropped a message) in any round <= this one.  This is
  // F(H', Π) for the r-prefix H'.
  std::vector<bool> faulty_by_now;

  // Coterie of the r-prefix (Definition 2.3), computed at the end of the
  // round: p is a member iff p happened-before every process correct in the
  // prefix.
  std::vector<bool> coterie;
};

struct History {
  int n = 0;
  std::vector<RoundRecord> rounds;

  Round length() const { return static_cast<Round>(rounds.size()); }
  const RoundRecord& at(Round r) const { return rounds.at(r - 1); }  // 1-based

  // Faulty set of the whole recorded history.
  std::vector<bool> faulty() const {
    return rounds.empty() ? std::vector<bool>(n, false)
                          : rounds.back().faulty_by_now;
  }

  // Rounds r (1-based) at whose end the coterie differs from the coterie at
  // the end of round r-1.  These are the paper's de-stabilizing events.
  std::vector<Round> coterie_change_rounds() const;

  // Last de-stabilizing event, or 0 if the coterie never changed after
  // round 1.  (The coterie established by the very first round of all-to-all
  // exchange is the baseline, not a change.)
  Round last_coterie_change() const;
};

}  // namespace ftss
