// The Figure 4 transformation: an Eventually Strong Failure Detector from an
// Eventually Weak one, tolerant of both process and systemic failures
// (Theorem 5).
//
// For every target s this node keeps a monotone pair (num[s], state[s]):
//   when detect(s)    : num[s]++; state[s] := dead     (◇W says s is suspect)
//   when p == s       : num[s]++; state[s] := alive    (I vouch for myself)
//   when true         : send (s, num[s], state[s]) to all
//   on deliver (s,n,st): if n > num[s] adopt (n, st)
//
// Wire layout: one gossip message carries all n pairs as the flat array
// [num[0], alive[0], num[1], alive[1], ...], 2n elements, the pair for
// target s at positions 2s and 2s + 1 (num an integer, alive a bool).
//
// Unlike Chandra–Toueg's own ◇W→◇S transformation this needs NO
// initialization: whatever garbage (num, state) pairs execution commences
// with, the strictly increasing counters of live writers overtake them —
// that is exactly what makes it tolerate systemic failures.
#pragma once

#include <vector>

#include "async/module.h"
#include "detect/fd.h"

namespace ftss {

class GossipStrongFd : public Module, public FailureDetector {
 public:
  // `detect` is the ◇W predicate (weak_view / full_view over a HeartbeatFd,
  // or any custom oracle in tests).
  GossipStrongFd(ProcessId self, int n, WeakDetect detect);

  std::string channel() const override { return "gfd"; }
  void on_tick(ModuleContext& ctx) override;
  void on_message(ModuleContext& ctx, ProcessId from,
                  const Value& body) override;

  Value snapshot() const override;
  void restore(const Value& state) override;

  // ◇S output: suspects(s) iff state[s] == "dead".
  bool suspects(ProcessId s) const override { return !alive_[s]; }
  std::int64_t num(ProcessId s) const { return num_[s]; }

 private:
  ProcessId self_;
  int n_;
  WeakDetect detect_;
  std::vector<std::int64_t> num_;
  std::vector<bool> alive_;
};

}  // namespace ftss
