// Interface implemented by round-based protocol processes (§2.1).
//
// Each synchronous round has two protocol-visible moments:
//   begin_round  — the process emits its messages for the round;
//   end_round    — the process receives the round's deliveries and moves to
//                  its next state.
// The simulator additionally uses snapshot_state/restore_state to record
// histories and to inject systemic failures (arbitrary initial states).
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "util/process_set.h"

namespace ftss {

// Outbox handed to a process during begin_round.  Destinations include the
// sender itself; per the paper a process always receives its own broadcast.
class Outbox {
 public:
  virtual ~Outbox() = default;
  virtual void send(ProcessId to, Value payload) = 0;
  virtual void broadcast(Value payload) = 0;  // to all n processes, incl. self
  virtual int process_count() const = 0;
};

// Outbox appending a process's begin_round emissions to a caller-owned
// vector: sends are bounds-checked, and a broadcast fans out into one
// Outgoing per destination in id order, self included.  The sync
// simulator's send phase, the lockstep leg and the transport leg's process
// threads all collect through it, so every execution leg sees the same
// emission order and the same bad-destination error.
class CollectOutbox : public Outbox {
 public:
  CollectOutbox(ProcessId self, int n, std::vector<Outgoing>* sink)
      : self_(self), n_(n), sink_(sink) {}

  void send(ProcessId to, Value payload) override {
    if (to < 0 || to >= n_) {
      throw std::out_of_range("Outbox::send: bad destination");
    }
    sink_->push_back(Outgoing{self_, to, std::move(payload)});
  }

  void broadcast(Value payload) override {
    for (ProcessId q = 0; q < n_; ++q) {
      sink_->push_back(Outgoing{self_, q, payload});
    }
  }

  int process_count() const override { return n_; }

 private:
  ProcessId self_;
  int n_;
  std::vector<Outgoing>* sink_;
};

class SyncProcess {
 public:
  virtual ~SyncProcess() = default;

  // Emit this round's messages.
  virtual void begin_round(Outbox& out) = 0;

  // Consume this round's deliveries (sorted by sender id) and transition.
  // The vector is read-only and valid only for the call: on a broadcast
  // round the sync simulator hands the same inbox to every process.
  virtual void end_round(const std::vector<Message>& delivered) = 0;

  // Full serialization of the process state, used for history recording and
  // as the target of systemic corruption.  restore_state must accept *any*
  // Value — a systemic failure can hand it arbitrary garbage — and map it to
  // some state in the process's state space without crashing.
  virtual Value snapshot_state() const = 0;
  virtual void restore_state(const Value& state) = 0;

  // The distinguished round variable c_p, if this protocol has one
  // (Assumption 1 problems do).  Used by the Σ-predicate checkers.
  virtual std::optional<Round> round_counter() const { return std::nullopt; }

  // Whether the process has halted itself (used by *uniform* protocols that
  // "self-check and halt" — the technique Theorem 2 rules out).  A halted
  // process sends nothing and ignores deliveries but is not crashed.
  virtual bool halted() const { return false; }

  // The §2.4 suspect set, for protocols that maintain one (the Π⁺ compiler
  // output).  The observer records it into histories and traces; nullptr
  // means the protocol has no such set.
  virtual const ProcessSet* suspect_set() const { return nullptr; }
};

}  // namespace ftss
