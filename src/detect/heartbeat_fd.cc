#include "detect/heartbeat_fd.h"

#include <algorithm>

namespace ftss {

HeartbeatFd::HeartbeatFd(ProcessId self, int n, HeartbeatFdConfig config)
    : self_(self),
      n_(n),
      config_(config),
      last_heard_(n, 0),
      timeout_(n, config.initial_timeout),
      suspected_(n, false) {}

Time HeartbeatFd::clamp_timeout(Time t) const {
  return std::clamp<Time>(t, 1, config_.max_timeout);
}

void HeartbeatFd::on_tick(ModuleContext& ctx) {
  ctx.broadcast(Value(1));  // the heartbeat itself carries no data
  const Time now = ctx.now();
  for (ProcessId s = 0; s < n_; ++s) {
    if (s == self_) continue;
    // Heal corrupted timestamps claiming to be from the future.
    if (last_heard_[s] > now) last_heard_[s] = now;
    if (now - last_heard_[s] > timeout_[s]) suspected_[s] = true;
  }
}

void HeartbeatFd::on_message(ModuleContext& ctx, ProcessId from, const Value&) {
  if (from < 0 || from >= n_ || from == self_) return;
  if (suspected_[from]) {
    // False suspicion: back off so it eventually stops happening (post-GST).
    timeout_[from] = clamp_timeout(2 * timeout_[from]);
    suspected_[from] = false;
  }
  last_heard_[from] = ctx.now();
}

Value HeartbeatFd::snapshot() const {
  Value::Array heard, to, sus;
  for (ProcessId s = 0; s < n_; ++s) {
    heard.push_back(Value(last_heard_[s]));
    to.push_back(Value(timeout_[s]));
    sus.push_back(Value(suspected_[s]));
  }
  Value v;
  v["last_heard"] = Value(std::move(heard));
  v["timeout"] = Value(std::move(to));
  v["suspected"] = Value(std::move(sus));
  return v;
}

void HeartbeatFd::restore(const Value& state) {
  // Tolerant: each slot falls back to a safe default on garbage; timeouts
  // are clamped so corruption cannot stall convergence indefinitely.
  const Value& heard = state.at("last_heard");
  const Value& to = state.at("timeout");
  const Value& sus = state.at("suspected");
  for (ProcessId s = 0; s < n_; ++s) {
    const auto idx = static_cast<std::size_t>(s);
    last_heard_[s] =
        (heard.is_array() && idx < heard.size()) ? heard.as_array()[idx].int_or(0) : 0;
    if (last_heard_[s] < 0) last_heard_[s] = 0;
    timeout_[s] = clamp_timeout(
        (to.is_array() && idx < to.size())
            ? to.as_array()[idx].int_or(config_.initial_timeout)
            : config_.initial_timeout);
    suspected_[s] =
        (sus.is_array() && idx < sus.size()) ? sus.as_array()[idx].bool_or(false) : false;
  }
  suspected_[self_] = false;
}

}  // namespace ftss
