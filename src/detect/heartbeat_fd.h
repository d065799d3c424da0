// Adaptive-timeout heartbeat failure detector.
//
// The standard realization of an eventually-accurate detector under partial
// synchrony: every process broadcasts heartbeats on each tick; s is
// suspected when no heartbeat arrived within timeout[s]; a false suspicion
// (heartbeat from a suspected process) doubles timeout[s].
// After GST message delays are bounded, so each correct process is falsely
// suspected only finitely often — eventual strong accuracy — while a crashed
// process stops producing heartbeats and is suspected forever — strong
// completeness.
//
// Wire layout: a heartbeat is the integer 1.  Its arrival is the whole
// message, so the body is never read and no body is malformed.
//
// Self-stabilization: all state (last-heard timestamps, timeouts, suspicion
// flags) is self-correcting.  Timestamps in the future are clamped to `now`
// on the next tick; timeouts are clamped into [1, max_timeout], so even
// adversarial corruption delays convergence by at most max_timeout.
#pragma once

#include <vector>

#include "async/module.h"
#include "detect/fd.h"

namespace ftss {

struct HeartbeatFdConfig {
  Time initial_timeout = 60;
  Time max_timeout = 5000;
};

class HeartbeatFd : public Module, public FailureDetector {
 public:
  HeartbeatFd(ProcessId self, int n, HeartbeatFdConfig config = {});

  std::string channel() const override { return "hb"; }
  void on_tick(ModuleContext& ctx) override;
  void on_message(ModuleContext& ctx, ProcessId from,
                  const Value& body) override;

  Value snapshot() const override;
  void restore(const Value& state) override;

  bool suspects(ProcessId s) const override { return suspected_[s]; }
  Time timeout_of(ProcessId s) const { return timeout_[s]; }

 private:
  Time clamp_timeout(Time t) const;

  ProcessId self_;
  int n_;
  HeartbeatFdConfig config_;
  std::vector<Time> last_heard_;
  std::vector<Time> timeout_;
  std::vector<bool> suspected_;
};

}  // namespace ftss
