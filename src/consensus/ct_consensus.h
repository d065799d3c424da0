// Chandra–Toueg rotating-coordinator Consensus (◇S, crash failures,
// n > 2f), plus the paper's §3 superimposition that makes it tolerant of
// systemic failures.
//
// Baseline protocol (StabilizationOptions::baseline()): each asynchronous
// round r has coordinator c = r mod n and four phases —
//   P1  every process sends (r, est, ts) to c;
//   P2  c collects a majority of estimates, adopts one with maximal ts and
//       broadcasts (r, est_c);
//   P3  each process waits for est_c or for its detector to suspect c; it
//       answers ack (adopting est_c, ts := r) or nack;
//   P4  c collects a majority of answers; if all are acks it reliably
//       broadcasts decide(est_c).
// Safety comes from majority-locking of (est, ts); liveness from the
// detector's eventual accuracy.  As in CT91, baseline processes walk the
// rounds in order (advancing after their P3 answer) and coordinator duties
// for a round run as background tasks; messages for rounds a process has not
// reached yet are buffered (reliable channels).
//
// The paper's derivation (§3) adds exactly two mechanisms:
//   * resend_phase_messages — until a process completes a phase it
//     periodically re-sends every message that phase requires.  This undoes
//     the deadlock where a corrupted initial state falsely records messages
//     as already sent (the [KP90] technique);
//   * gossip_round — the superimposed round agreement: the current round is
//     gossiped and tagged on every message; a process learning of a higher
//     round abandons all work of its current round (including coordinator
//     tasks) and begins the first phase of the new round; messages from
//     abandoned (lower) rounds are ignored.  With the superimposition a
//     process stays in its round until it decides, learns a higher round, or
//     suspects the coordinator — the agreed round advances through the
//     max+1-style adoption rather than through free-running walks.
// With both enabled this is the paper's process- and systemic-failure-
// tolerant Consensus; with both disabled it is the CT91 baseline that EXP6
// shows deadlocking when started from a corrupted state.
//
// Message layouts: every phase message is a positional array headed by a
// one-letter tag string, decoded by position after its arity and element
// types are checked (anything else is dropped unread):
//   ["E", r, est, ts]   P1 estimate to the coordinator
//   ["C", r, est]       P2 coordinator estimate
//   ["A", r, ok]        P3 answer: ok is true for ack, false for nack
//   ["D", est]          decision (reliable broadcast)
//   ["R", r]            round gossip (gossip_round only)
// r and ts are integers, ok a bool, est any Value.
//
// Caveats (documented in DESIGN.md): from a corrupted initial state the
// protocol guarantees agreement and termination; validity holds from clean
// states.  A corrupted *decision flag* is indistinguishable from a completed
// reliable broadcast of a decision and is therefore outside the recoverable
// state (corruption generators scramble everything else).
#pragma once

#include <map>
#include <optional>

#include "async/module.h"
#include "detect/fd.h"

namespace ftss {

struct StabilizationOptions {
  bool resend_phase_messages = true;
  bool gossip_round = true;

  static StabilizationOptions baseline() { return {false, false}; }
  static StabilizationOptions ftss() { return {true, true}; }
};

class CtConsensus : public Module {
 public:
  CtConsensus(ProcessId self, int n, Value input, WeakDetect suspects,
              StabilizationOptions options);

  std::string channel() const override { return "cons"; }
  void on_start(ModuleContext& ctx) override;
  void on_tick(ModuleContext& ctx) override;
  void on_message(ModuleContext& ctx, ProcessId from,
                  const Value& body) override;

  Value snapshot() const override;
  void restore(const Value& state) override;

  // The decided value a well-formed ["D", est] message carries, else
  // nullptr.
  static const Value* decided_value(const Value& body);

  bool decided() const { return decided_; }
  const Value& decision() const { return decision_; }
  std::optional<Time> decision_time() const { return decision_time_; }
  std::int64_t round() const { return r_; }
  const Value& estimate() const { return est_; }
  std::int64_t timestamp() const { return ts_; }

 private:
  // Coordinator-side bookkeeping for one round (phases 2 and 4).
  struct CoordTask {
    std::map<ProcessId, std::pair<Value, std::int64_t>> ests;
    std::optional<Value> cest;
    std::map<ProcessId, bool> replies;
    bool concluded = false;
  };

  ProcessId coordinator(std::int64_t r) const {
    return static_cast<ProcessId>(((r % n_) + n_) % n_);
  }
  int majority() const { return n_ / 2 + 1; }

  void enter_round(ModuleContext& ctx, std::int64_t r);
  void maybe_jump(ModuleContext& ctx, std::int64_t r);
  void send_estimate(ModuleContext& ctx);
  void handle_est(ModuleContext& ctx, ProcessId from, std::int64_t r,
                  const Value& est, std::int64_t ts);
  void handle_cest(ModuleContext& ctx, std::int64_t r, const Value& est);
  void handle_reply(ModuleContext& ctx, ProcessId from, std::int64_t r,
                    bool ack);
  void accept_cest(ModuleContext& ctx, const Value& est);
  void send_reply(ModuleContext& ctx, bool ack);
  void decide(ModuleContext& ctx, const Value& v);

  ProcessId self_;
  int n_;
  Value input_;
  WeakDetect suspects_;
  StabilizationOptions options_;

  // --- protocol state (all of it corruptible) ---
  std::int64_t r_ = 0;
  Value est_;
  std::int64_t ts_ = 0;
  bool sent_est_ = false;    // P1 done for round r_
  bool sent_reply_ = false;  // P3 done for round r_
  bool replied_ack_ = false;
  std::map<std::int64_t, CoordTask> tasks_;        // rounds I coordinate
  std::map<std::int64_t, Value> buffered_cests_;   // CESTs for future rounds
  bool decided_ = false;
  Value decision_;

  // Observer-side bookkeeping (not protocol state, never corrupted).
  std::optional<Time> decision_time_;
};

}  // namespace ftss
