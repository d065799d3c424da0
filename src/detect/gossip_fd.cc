#include "detect/gossip_fd.h"

#include "util/numeric.h"

namespace ftss {

GossipStrongFd::GossipStrongFd(ProcessId self, int n, WeakDetect detect)
    : self_(self),
      n_(n),
      detect_(std::move(detect)),
      num_(n, 0),
      alive_(n, true) {}

void GossipStrongFd::on_tick(ModuleContext& ctx) {
  // when (p = s): num[s]++; state[s] := alive.
  ++num_[self_];
  alive_[self_] = true;
  // when detect(s): num[s]++; state[s] := dead.
  for (ProcessId s = 0; s < n_; ++s) {
    if (s != self_ && detect_ && detect_(s)) {
      ++num_[s];
      alive_[s] = false;
    }
  }
  // when true: send (s, num[s], state[s]) to all — batched into one message,
  // the pair for target s at positions 2s and 2s + 1.
  Value::Array pairs;
  pairs.reserve(2 * static_cast<std::size_t>(n_));
  for (ProcessId s = 0; s < n_; ++s) {
    pairs.emplace_back(num_[s]);
    pairs.emplace_back(static_cast<bool>(alive_[s]));
  }
  ctx.broadcast(Value(std::move(pairs)));
}

void GossipStrongFd::on_message(ModuleContext&, ProcessId, const Value& body) {
  // Exactly n (num, alive) pairs; any other shape is dropped unread, and a
  // pair of the wrong types is skipped.
  if (!body.is_array()) return;
  const Value::Array& pairs = body.as_array();
  if (pairs.size() != 2 * static_cast<std::size_t>(n_)) return;
  for (ProcessId s = 0; s < n_; ++s) {
    const Value& num = pairs[2 * static_cast<std::size_t>(s)];
    const Value& alive = pairs[2 * static_cast<std::size_t>(s) + 1];
    if (!num.is_int() || !alive.is_bool()) continue;
    // when deliver (s, n, st): if (n > num[s]) adopt.
    const std::int64_t n = clamp_round_tag(num.as_int());
    if (n > num_[s]) {
      num_[s] = n;
      alive_[s] = alive.as_bool();
    }
  }
}

Value GossipStrongFd::snapshot() const {
  Value::Array nums, alive;
  for (ProcessId s = 0; s < n_; ++s) {
    nums.push_back(Value(num_[s]));
    alive.push_back(Value(alive_[s]));
  }
  Value v;
  v["num"] = Value(std::move(nums));
  v["alive"] = Value(std::move(alive));
  return v;
}

void GossipStrongFd::restore(const Value& state) {
  const Value& nums = state.at("num");
  const Value& alive = state.at("alive");
  for (ProcessId s = 0; s < n_; ++s) {
    const auto idx = static_cast<std::size_t>(s);
    num_[s] = clamp_restored_round(
        (nums.is_array() && idx < nums.size()) ? nums.as_array()[idx].int_or(0)
                                               : 0);
    alive_[s] = (alive.is_array() && idx < alive.size())
                    ? alive.as_array()[idx].bool_or(true)
                    : true;
  }
}

}  // namespace ftss
