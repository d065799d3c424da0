#include "core/round_agreement.h"

#include <algorithm>

#include "util/numeric.h"

namespace ftss {

namespace {
// Message shape: {"type": "ROUND", "p": sender, "c": round}.
Value round_message(ProcessId p, Round c) {
  Value m;
  m["type"] = Value("ROUND");
  m["p"] = Value(static_cast<std::int64_t>(p));
  m["c"] = Value(c);
  return m;
}

// One below every clamped tag: the max fold starts here and still holds it
// iff no integer tag was delivered.
constexpr Round kNoTag = -kTagClampMagnitude - 1;
}  // namespace

void RoundAgreementProcess::begin_round(Outbox& out) {
  // The broadcast payload is a member reused across rounds: only the "c"
  // entry changes, and COW semantics make the update in-place when nothing
  // retains last round's copies while cloning first when the history or an
  // in-flight message still shares the node.  Nothing retains them on an
  // unrecorded, jitter-free run: the slow path clears each inbox right after
  // its end_round, and SyncSimulator::run_rounds_impl's broadcast fast path
  // clears its one shared inbox once the round's end_round calls finish.
  // Steady-state rounds there build no payload nodes at all.
  if (msg_.is_null()) msg_ = round_message(self_, c_);
  msg_["c"] = Value(c_);
  out.broadcast(msg_);
}

void RoundAgreementProcess::end_round(const std::vector<Message>& delivered) {
  // R := { c | p received (ROUND: q, c) };  c_p := max(R) + 1.
  // R always contains p's own broadcast, so max over deliveries is defined;
  // guard anyway so a pathological run cannot fault.
  Round best = kNoTag;
  for (const auto& m : delivered) {
    const Value& c = m.payload.at("c");
    if (!c.is_int()) continue;  // garbage from a corrupted peer: ignore shape
    best = std::max(best, clamp_round_tag(c.as_int()));
  }
  c_ = (best != kNoTag ? best : clamp_round_tag(c_)) + 1;
}

Value RoundAgreementProcess::snapshot_state() const {
  Value s;
  s["c"] = Value(c_);
  return s;
}

void RoundAgreementProcess::restore_state(const Value& state) {
  // Map arbitrary corruption into the state space (a single integer): use
  // the "c" field when it is an int, otherwise derive a deterministic
  // arbitrary integer from the garbage.
  const Value& c = state.at("c");
  c_ = clamp_restored_round(
      c.is_int() ? c.as_int() : static_cast<Round>(state.hash() % 1000003));
}

void UniformRoundAgreementProcess::begin_round(Outbox& out) {
  if (msg_.is_null()) msg_ = round_message(self_, c_);
  msg_["c"] = Value(c_);
  out.broadcast(msg_);
}

void UniformRoundAgreementProcess::end_round(
    const std::vector<Message>& delivered) {
  Round best = kNoTag;
  bool disagreement = false;
  for (const auto& m : delivered) {
    const Value& c = m.payload.at("c");
    if (!c.is_int()) continue;
    if (c.as_int() != c_) disagreement = true;
    best = std::max(best, clamp_round_tag(c.as_int()));
  }
  if (disagreement) {
    // "Self-check and halt before doing any harm."  Under a systemic failure
    // this halts correct processes — the behavior Theorem 2 proves fatal.
    halted_ = true;
    return;
  }
  c_ = (best != kNoTag ? best : clamp_round_tag(c_)) + 1;
}

Value UniformRoundAgreementProcess::snapshot_state() const {
  Value s;
  s["c"] = Value(c_);
  s["halted"] = Value(halted_);
  return s;
}

void UniformRoundAgreementProcess::restore_state(const Value& state) {
  const Value& c = state.at("c");
  c_ = clamp_restored_round(
      c.is_int() ? c.as_int() : static_cast<Round>(state.hash() % 1000003));
  halted_ = state.at("halted").bool_or(false);
}

}  // namespace ftss
