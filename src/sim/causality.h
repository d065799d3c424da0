// Lamport happened-before tracking and coterie computation (Definition 2.3).
//
// For each process q we maintain influence[q] — the set of processes p such
// that some event of p happened-before an event of q in the history so far
// (p ->_H q).  In the lock-step synchronous model this closure has a simple
// incremental form: when a message sent by s at the start of round r is
// delivered to q at the end of round r, q inherits s's start-of-round
// influence set.  A process always influences itself (its first event
// precedes its later events).
//
// The coterie of a prefix is then { p : for all correct q, p in influence[q] }.
//
// Influence sets grow monotonically, which is what makes the closure cheap
// to maintain incrementally: each delivery unions via
// ProcessSet::or_with_changed, and only processes whose set actually gained
// a bit are marked stale.  begin_round re-snapshots just the stale sets
// (previously it copied all n every round), deliveries into an
// already-full set return before touching any words, and the coterie is a
// maintained accumulator recomputed only when some influence set changed or
// the correct set differs from the cached one.  In the all-to-all steady
// state every set is full after the first exchange, so per-round closure
// cost drops from O(n^2) word ops to O(1).
//
// Sets are word-packed ProcessSets: the per-delivery union that runs n^2
// times per round is O(n/64) word ORs (AVX2 above 4 words), and the
// send-time snapshot handed to the simulator is a reference into this
// tracker, not a copy — the simulator only materializes a copy for messages
// whose delivery is jitter-delayed.
#pragma once

#include <vector>

#include "sim/types.h"
#include "util/process_set.h"

namespace ftss {

class CausalityTracker {
 public:
  explicit CausalityTracker(int n);

  int process_count() const { return n_; }

  // Call at the start of each round, before reporting any deliveries: fixes
  // the send-time influence sets for this round's messages.
  void begin_round();

  // Record that a message sent by `sender` this round was delivered to
  // `dest` (including self-deliveries; they are harmless no-ops for the
  // closure).
  void deliver(ProcessId sender, ProcessId dest);

  // The sender-side influence snapshot for messages sent this round.  The
  // reference is valid until the next begin_round; the simulator copies it
  // only into jitter-delayed InFlight entries.
  const ProcessSet& send_snapshot(ProcessId sender) const {
    return influence_at_send_[sender];
  }

  // Delivery of a message whose send-time snapshot was captured earlier.
  void deliver_snapshot(const ProcessSet& sender_influence, ProcessId dest) {
    if (full_.contains(dest)) return;  // already the whole universe
    if (influence_[dest].or_with_changed(sender_influence)) {
      stale_.insert(dest);
      closure_changed_ = true;
      if (influence_[dest].count() == n_) full_.insert(dest);
    }
  }

  // --- Lane API for the round engine --------------------------------------
  //
  // Each engine lane owns a contiguous range of destinations; during a
  // delivery phase it calls deliver_snapshot_lane for its own
  // destinations only, accumulating staleness/fullness into its private
  // Lane instead of the shared stale_/full_ bookkeeping (which other lanes
  // are reading concurrently).  merge_lane folds the bits back serially
  // between phases.  influence_[dest] itself is written directly — the
  // dest partition makes it lane-exclusive — and influence growth is
  // monotone with commuting unions, so the merged state is bit-identical
  // to one-at-a-time delivery in sender-major order.
  struct Lane {
    ProcessSet stale;
    ProcessSet full;
    bool changed = false;
  };
  Lane make_lane() const {
    return Lane{ProcessSet(n_), ProcessSet(n_), false};
  }
  void deliver_snapshot_lane(const ProcessSet& sender_influence,
                             ProcessId dest, Lane& lane) {
    if (full_.contains(dest) || lane.full.contains(dest)) return;
    if (influence_[dest].or_with_changed(sender_influence)) {
      lane.stale.insert(dest);
      lane.changed = true;
      if (influence_[dest].count() == n_) lane.full.insert(dest);
    }
  }
  // Is q's influence set already the whole universe, counting fullness
  // reached by this lane's own deliveries earlier in the round (pre-merge)?
  // Further deliveries to q are no-ops; the simulator's fast path uses this
  // to skip whole delivery loops once the closure has saturated.  Only
  // valid for destinations the lane owns.
  bool saturated_lane(ProcessId q, const Lane& lane) const {
    return full_.contains(q) || lane.full.contains(q);
  }
  // Folds a lane's accumulated staleness back into the shared bookkeeping
  // and resets the lane.  Serial (call between parallel phases, before
  // coterie() or the next begin_round).
  void merge_lane(Lane& lane);

  // Does p ->_H q hold (reflexively true for p == q)?
  bool influences(ProcessId p, ProcessId q) const {
    return influence_[q].contains(p);
  }

  // Coterie of the current prefix, given the prefix's correct set
  // (q in correct iff q has not manifested a fault).  Crashed/faulty
  // processes can still be coterie *members*; they are just not required to
  // be reached.
  ProcessSet coterie(const ProcessSet& correct) const;

 private:
  int n_;
  // influence_[q] holds { p : p ->_H q }.
  std::vector<ProcessSet> influence_;
  std::vector<ProcessSet> influence_at_send_;
  // Processes whose influence_ gained bits since their last
  // influence_at_send_ snapshot; begin_round copies exactly these.
  ProcessSet stale_;
  // Processes whose influence_ is the full universe: deliveries to them
  // cannot add anything and return without reading the snapshot.
  ProcessSet full_;
  // Coterie accumulator: valid while no influence set has changed and the
  // correct set matches.  mutable because coterie() is logically const.
  mutable bool closure_changed_ = true;
  mutable bool coterie_valid_ = false;
  mutable ProcessSet cached_coterie_;
  mutable ProcessSet cached_correct_;
};

}  // namespace ftss
