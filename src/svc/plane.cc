#include "svc/plane.h"

namespace ftss::svc {

void RequestPlane::submit(Command cmd) {
  queue_.push_back(std::move(cmd));
  ++submitted_;
}

Value RequestPlane::proposal(std::int64_t instance) {
  auto it = proposals_.find(instance);
  if (it != proposals_.end()) return it->second;

  // Outside the pipeline window (or nothing queued): the empty heartbeat
  // batch keeps the log advancing without consuming client commands.
  const bool window_open = instance <= applied_floor_ + pipeline_depth_;
  if (!window_open || queue_.empty()) {
    if (!window_open && !queue_.empty()) ++proposals_empty_backpressure_;
    proposals_.emplace(instance, Value());
    return Value();
  }

  std::vector<Command> commands;
  while (!queue_.empty() && static_cast<int>(commands.size()) < batch_) {
    commands.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  Value batch = encode_batch(commands);
  proposals_.emplace(instance, batch);
  assignments_.emplace(instance, std::move(commands));
  return batch;
}

void RequestPlane::on_decided(std::int64_t instance) {
  assignments_.erase(instance);
}

std::int64_t RequestPlane::reclaim(std::int64_t max_decided, std::int64_t gap) {
  // Take stale assignments oldest-first so re-queued commands keep their
  // original relative order at the front of the queue.
  std::vector<Command> rescued;
  auto it = assignments_.begin();
  for (; it != assignments_.end() && it->first + gap <= max_decided; ++it) {
    for (Command& cmd : it->second) rescued.push_back(std::move(cmd));
  }
  assignments_.erase(assignments_.begin(), it);
  for (auto r = rescued.rbegin(); r != rescued.rend(); ++r) {
    queue_.push_front(std::move(*r));
  }
  const auto requeued = static_cast<std::int64_t>(rescued.size());
  retransmitted_ += requeued;
  return requeued;
}

const Value* RequestPlane::find_proposal(std::int64_t instance) const {
  auto it = proposals_.find(instance);
  return it == proposals_.end() ? nullptr : &it->second;
}

bool RequestPlane::drained() const {
  return queue_.empty() && assignments_.empty();
}

}  // namespace ftss::svc
