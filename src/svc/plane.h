// The client request plane: a canonical command queue batched into
// consensus-instance proposals.
//
// Clients submit commands to the service; the plane assigns them, in
// submission order, to consensus instances in batches of up to `batch`
// commands.  Every replica derives its proposal for instance k from the
// plane (the repeated-consensus InputSource contract: a proposal must be
// derivable locally and reproducibly), so whichever replica's proposal wins
// instance k, it is the same value — each submitted command is decided
// exactly once, in order, while the system is stable.
//
// Determinism rules the design:
//  * proposal(k) is MEMOIZED: the first request for instance k (from any
//    replica, including a replica whose corrupted state yanked it to a wild
//    instance number) materializes the batch from the queue; every later
//    request — and the post-run validity analysis — sees the same value.
//  * Pipelining backpressure: instances more than `pipeline_depth` ahead of
//    the applied floor propose the empty batch instead of draining the
//    queue.  This bounds how far the decided log can run ahead of
//    application AND contains corrupted instance counters: a replica
//    restored to instance 10^12 asks for a proposal far outside the window
//    and gets a harmless empty batch, not the clients' queued commands.
//  * At-least-once retransmit: systemic corruption can yank the whole
//    system past instance j before j decides, orphaning j's batch, or get
//    a corrupted-era value decided for j in its place.  The plane keeps
//    only open assignments: one leaves when some replica logs j's own
//    batch, or when the decided log has passed it by `gap` instances and
//    reclaim() re-queues its commands (in original submission order) for a
//    future instance.  The KvStore's (client, seq) dedup makes the rare
//    double-decide harmless.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "svc/kv.h"

namespace ftss::svc {

class RequestPlane {
 public:
  RequestPlane(int batch, std::int64_t pipeline_depth)
      : batch_(batch < 1 ? 1 : batch),
        pipeline_depth_(pipeline_depth < 1 ? 1 : pipeline_depth) {}

  // Client side: queue a command for some future instance.
  void submit(Command cmd);

  // Consensus side (the InputSource): the proposal for instance k.
  Value proposal(std::int64_t instance);

  // Harness side.
  void set_applied_floor(std::int64_t floor) { applied_floor_ = floor; }
  // Closes instance k's assignment: its commands are decided.  Call it
  // only when a replica logs a value equal to find_proposal(k), whether
  // first or later: a different value decided for k does not carry k's
  // commands, and closing k would strand them.
  void on_decided(std::int64_t instance);
  // Closes the open assignments the decided log has passed by at least
  // `gap` instances and re-queues their commands.  Returns how many
  // commands were re-queued.
  std::int64_t reclaim(std::int64_t max_decided, std::int64_t gap);

  // Post-run analysis: the memoized proposal for instance k, or nullptr if
  // k was never asked for (a decided value for such an instance is
  // necessarily a corrupted-era artifact).
  const Value* find_proposal(std::int64_t instance) const;

  std::int64_t pending_depth() const {
    return static_cast<std::int64_t>(queue_.size());
  }
  std::int64_t submitted() const { return submitted_; }
  std::int64_t retransmitted() const { return retransmitted_; }
  std::int64_t proposals_empty_backpressure() const {
    return proposals_empty_backpressure_;
  }
  // True once every submitted command sits in a decided instance: nothing
  // queued and no assignment open.
  bool drained() const;

 private:
  int batch_;
  std::int64_t pipeline_depth_;
  std::int64_t applied_floor_ = -1;

  std::deque<Command> queue_;
  std::map<std::int64_t, Value> proposals_;        // memoized, by instance
  // Open assignments: the commands of non-empty proposals not yet decided
  // or reclaimed, by instance.
  std::map<std::int64_t, std::vector<Command>> assignments_;

  std::int64_t submitted_ = 0;
  std::int64_t retransmitted_ = 0;
  std::int64_t proposals_empty_backpressure_ = 0;
};

}  // namespace ftss::svc
