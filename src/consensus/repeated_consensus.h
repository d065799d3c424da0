// Repeated asynchronous Consensus, tolerant of crash + systemic failures.
//
// The paper's synchronous sections study *repeated* problems ("a
// non-terminating protocol for Repeated Consensus constructed by iterating a
// terminating protocol for a single Consensus", §2) because terminating
// protocols cannot tolerate systemic failures [KP90].  This module carries
// the same construction to the asynchronous side: an unbounded sequence of
// §3 consensus instances, with instance-level agreement by the same
// max-adoption rule the round agreement uses.
//
// Why it matters: single-shot consensus from a corrupted state can only
// guarantee agreement + termination (a corrupted estimate is a legitimate
// "proposal"), but in the REPEATED problem every instance started after
// stabilization draws fresh inputs — so validity is fully restored from some
// instance on, mirroring Theorem 4's Σ⁺ guarantee.
//
// Mechanics:
//  * instance k runs a full §3 CtConsensus (with its re-send and round
//    gossip) whose messages travel tagged with the instance number, as the
//    2-array [k, CtConsensus message] (layouts in ct_consensus.h);
//  * a process that decides instance k logs the decision and starts k+1;
//  * a process that sees a tag k' > k abandons its instance and starts k'
//    afresh (instance-level round agreement);
//  * DECIDE messages for old instances are logged but do not resurrect
//    abandoned state — so a process yanked forward by corruption still
//    learns the decisions of instances it skipped.
//
// The decision log is protocol OUTPUT (like a decided flag): it is not part
// of the corruptible state.
#pragma once

#include <memory>

#include "consensus/ct_consensus.h"
#include "core/terminating.h"

namespace ftss {

// One logged decision of one instance at one process.
struct AsyncDecision {
  std::int64_t instance = 0;
  Value value;
  Time at_time = 0;
  bool decided_locally = false;  // false: learned from an old-instance DECIDE
};

class RepeatedConsensus : public Module {
 public:
  RepeatedConsensus(ProcessId self, int n, InputSource inputs,
                    WeakDetect suspects,
                    StabilizationOptions options = StabilizationOptions::ftss());

  std::string channel() const override { return "rcons"; }
  void on_start(ModuleContext& ctx) override;
  void on_tick(ModuleContext& ctx) override;
  void on_message(ModuleContext& ctx, ProcessId from,
                  const Value& body) override;

  Value snapshot() const override;
  void restore(const Value& state) override;

  std::int64_t instance() const { return k_; }
  const std::vector<AsyncDecision>& decisions() const { return log_; }
  // The logged decision of `instance`, if any.
  std::optional<Value> decision_of(std::int64_t instance) const;

 private:
  void start_instance(ModuleContext& ctx, std::int64_t k, bool run_start);
  void after_inner_step(ModuleContext& ctx);
  void log_decision(std::int64_t instance, const Value& v, Time t,
                    bool local);

  ProcessId self_;
  int n_;
  InputSource inputs_;
  WeakDetect suspects_;
  StabilizationOptions options_;

  // --- corruptible protocol state ---
  std::int64_t k_ = 0;
  std::unique_ptr<CtConsensus> inner_;

  // --- output log (observer-visible, not corruptible) ---
  std::vector<AsyncDecision> log_;
  std::int64_t max_logged_ = 0;  // largest instance in log_, if any
};

}  // namespace ftss
