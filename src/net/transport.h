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
// A round is the §2 model's one exchange, one frame each way per process:
//   hub -> p   kRound {r}: the deliveries due to p in round r-1, as [id,
//              inner kMessage frame *bytes*] pairs (none for r = 1);
//   p -> hub   kReport {r}: which ids decoded and which were rejected with
//              what typed wire error, then, after p closes round r-1, its
//              start-of-round-r state and round r's sends as [dest, body]
//              pairs (the frame implies sender and round).
// kInit opens the session.  The hub runs exchanges r = 1 .. rounds+1 with
// every process alive in round r-1, sending all the kRound frames before
// reading the reports in process-id order.  It resolves each report's ids
// as round r-1 fates, closes round r-1, then opens round r with the
// reports' states and sends and resolves round r's fates into the next
// exchange's delivery lists.  The kRound of exchange r is flagged "last"
// when p crashes at round r or r is past the final round; the reply is
// then p's final report, without sends, and p's thread returns.  All
// cross-thread ordering is imposed by the hub's fixed read order, so thread
// scheduling cannot perturb the recorded history: transport histories
// fingerprint-stably match the sync leg's.
//
// The leg returns what it observed and judges nothing: the two histories,
// the books' notes and its traffic.  The diff and the verdict belong to
// conform/ (replay_findings in conform/metamorphic.h), which keeps this
// library free of conform dependencies and judges both replay legs the
// same way.
//
// Corruption surface: the hub can deliberately mangle the inner frame of a
// chosen delivery (bit flip, truncation, payload mutation), duplicate it,
// drop it, or delay it a round.  Because the mangled bytes ride inside an
// intact kRound frame, the stream stays framed while the receiver's
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
  // wire_decode_ns (hub-side codec work: every channel frame, plus each
  // delivery's inner kMessage encode), hub_round_ns (one observation per
  // dispatched round), transport_trial_ns (whole leg).
  // Every histogram is wall_clock-flagged, so merging this into any
  // aggregate snapshot leaves the stable fingerprint untouched.
  MetricsSnapshot timing;
};

TransportResult run_transport_trial(const TrialPlan& plan,
                                    const TransportOptions& options = {});

}  // namespace ftss
