// Socket transport execution leg: the same TrialPlan executed by the
// SyncSimulator and by n OS threads exchanging *encoded* frames over
// loopback socketpairs.
//
// Like the event-simulator lock-step leg (conform/lockstep.h), the sync leg
// runs first and resolves the plan's randomness: every message's fate and
// delivery round is read off its audited history (sim/fate_schedule.h).
// The transport leg then re-executes the schedule with real serialization on
// the path.  Each process runs on its own thread behind a Channel; a hub on
// the calling thread plays network and fault adversary, and feeds what it
// sees to the external observer both legs share (check/replay_books.h).
// A round is the §2 model's one exchange, four frames per live process:
//   1. hub -> p   kRoundBegin;
//   2. p -> hub   kSnapshot: p's start-of-round state report, carrying the
//                 round's sends as [dest, body] pairs (the frame implies
//                 sender and round);
//   3. hub -> p   kDeliver: every delivery due to p this round, as [id,
//                 inner kMessage frame *bytes*] pairs;
//   4. p -> hub   kInboxStatus: which ids decoded, which were rejected
//                 with what typed wire error.
// The hub sends every kRoundBegin, reads the snapshots in process-id order,
// resolves fates, ships the kDeliver frames and reads the statuses back in
// process-id order.  Around the rounds, kInit opens the session and
// kShutdown closes it (answered by kFinal after the last round).  All
// cross-thread ordering is imposed by the hub's fixed read order, so thread
// scheduling cannot perturb the recorded history: transport histories
// fingerprint-stably match the sync leg's.
//
// Corruption surface: the hub can deliberately mangle the inner frame of a
// chosen delivery (bit flip, truncation, payload mutation), duplicate it,
// drop it, or delay it a round.  Because the mangled bytes ride inside an
// intact kDeliver frame, the stream stays framed while the receiver's
// decode_frame_exact sees exactly the corrupted bytes of that one delivery —
// rejections come back as typed WireErrors and are recorded as
// Fate::kFrameCorrupted sends, a fault class the in-memory legs cannot
// express.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/plan.h"
#include "check/replay_books.h"
#include "obs/metrics.h"
#include "sim/history.h"
#include "wire/codec.h"

namespace ftss {

struct TransportOptions {
  // CORRUPTION HOOKS: each selects the k-th delivery attempt (0-based count
  // of scheduled-as-delivered messages across the run; -1 = none) and
  // mangles its inner kMessage frame on the hub side before shipping.
  int flip_bit_index = -1;   // XOR one bit of the inner frame...
  int flip_bit = 0;          // ...this bit (absolute bit offset in the frame)
  int truncate_index = -1;   // ship only the first half of the inner frame
  int mutate_payload_index = -1;  // re-encode with payload replaced
  int duplicate_index = -1;  // ship the same [id, frame] pair twice
  int drop_index = -1;       // ship nothing at all
  int delay_index = -1;      // ship one round later than scheduled
};

// A receiver-side rejection of one inner frame, with its typed cause.
struct FrameReject {
  ProcessId dest = -1;
  ProcessId sender = -1;
  Round sent_round = 0;
  Round round = 0;  // round the delivery was attempted
  wire::WireError error = wire::WireError::kOk;
};

// A cross-check the histories alone cannot express (check/replay_books.h).
using TransportNote = Divergence;

struct TransportResult {
  // False when the plan cannot run on this leg (unknown protocol, no
  // rounds, an ambiguous fate schedule) or the harness itself failed
  // (socket/thread errors) — such results are skipped, not failed.
  bool supported = true;
  std::string unsupported_reason;

  History sync_history;
  History transport_history;

  // The replay books' cross-checks plus "io" (a channel failed mid-run);
  // Divergence lists the kinds.
  std::vector<TransportNote> notes;

  // Typed rejections reported by receivers; empty unless corruption was
  // injected (or an engine actually corrupts frames, which is the bug this
  // leg exists to catch).
  std::vector<FrameReject> rejected_frames;

  // Codec utilization across all channels, both directions.
  std::int64_t frames_sent = 0;
  std::int64_t bytes_sent = 0;

  // Wall-clock phase timing, populated on supported runs: wire_encode_ns /
  // wire_decode_ns (hub-side channel codec work), hub_round_ns (one
  // observation per dispatched round), transport_trial_ns (whole leg).
  // Every histogram is wall_clock-flagged, so merging this into any
  // aggregate snapshot leaves the stable fingerprint untouched.
  MetricsSnapshot timing;

  bool ok() const { return supported && notes.empty(); }
};

TransportResult run_transport_trial(const TrialPlan& plan,
                                    const TransportOptions& options = {});

}  // namespace ftss
