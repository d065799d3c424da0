#include "core/full_info.h"

#include <utility>

namespace ftss {

FullInfoProcess::FullInfoProcess(
    ProcessId self, int n, std::shared_ptr<const TerminatingProtocol> protocol,
    Value input)
    : self_(self),
      n_(n),
      protocol_(std::move(protocol)),
      input_(std::move(input)),
      s_(protocol_->initial_state(self_, n_, input_)) {}

void FullInfoProcess::begin_round(Outbox& out) {
  // p sends (STATE: p, s_p^r) to all.
  Value m;
  m["STATE"] = s_;
  out.broadcast(std::move(m));
}

void FullInfoProcess::end_round(const std::vector<Message>& delivered) {
  // Unwrap peer states; the envelope carries the sender id.
  std::vector<Message> states;
  states.reserve(delivered.size());
  for (const auto& m : delivered) {
    states.push_back(Message{m.sender, m.payload.at("STATE")});
  }
  const int k = static_cast<int>(c_);
  s_ = protocol_->transition(self_, n_, s_, states, k);
  // "if c_p^r = final_round then halt" — p halts after executing the round
  // in which its counter equaled final_round.
  if (c_ == protocol_->final_round()) {
    halted_ = true;
    return;
  }
  c_ = c_ + 1;
}

Value FullInfoProcess::snapshot_state() const {
  Value v;
  v["s"] = s_;
  v["c"] = Value(c_);
  v["halted"] = Value(halted_);
  return v;
}

void FullInfoProcess::restore_state(const Value& state) {
  s_ = state.at("s");
  const Value& c = state.at("c");
  c_ = c.is_int() ? c.as_int() : static_cast<Round>(state.hash() % 1000003);
  halted_ = state.at("halted").bool_or(false);
}

Value FullInfoProcess::decision() const { return protocol_->decision(s_); }

}  // namespace ftss
