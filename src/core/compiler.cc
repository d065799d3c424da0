#include "core/compiler.h"

#include <algorithm>
#include <utility>

#include "util/numeric.h"

namespace ftss {

CompiledProcess::CompiledProcess(
    ProcessId self, int n, std::shared_ptr<const TerminatingProtocol> protocol,
    InputSource inputs, CompilerOptions options)
    : self_(self),
      n_(n),
      protocol_(std::move(protocol)),
      inputs_(std::move(inputs)),
      options_(options),
      c_(0),
      suspect_(n),
      matching_(n) {
  // Protocol-specified initial state: counter 0 (normalize(0) == 1, i.e. the
  // first round of iteration 0), fresh Π state, empty suspect set.
  reset_iteration(c_);
}

std::int64_t CompiledProcess::iteration_of(Round c) const {
  return floor_div(c, protocol_->final_round());
}

void CompiledProcess::reset_iteration(Round c) {
  current_input_ = inputs_(self_, iteration_of(c));
  s_ = protocol_->initial_state(self_, n_, current_input_);
  suspect_.clear();
}

void CompiledProcess::begin_round(Outbox& out) {
  ++actual_round_;
  // p sends ((STATE: p, s_p), (ROUND: p, c_p)) to all.  The envelope map is
  // a member reused across rounds: COW updates it in place once nothing
  // retains last round's copies, so steady-state rounds allocate no
  // envelope nodes (the STATE entry itself is a refcount bump on s_).
  msg_["STATE"] = s_;
  msg_["ROUND"] = Value(c_);
  out.broadcast(msg_);
}

void CompiledProcess::end_round(const std::vector<Message>& delivered) {
  const int final_round = protocol_->final_round();

  // Which senders produced a message tagged with our current round?
  matching_.clear();
  for (const auto& m : delivered) {
    const Value& tag = m.payload.at("ROUND");
    const bool tag_matches = tag.is_int() && tag.as_int() == c_;
    if (!options_.use_round_tags || tag_matches) matching_.insert(m.sender);
  }

  // S := suspect ∪ { q | no message from q with round(m) = c_p this round },
  // i.e. suspect ∪ ¬matching — three word ops on the packed sets.
  ProcessSet s_new = matching_;
  s_new.flip_all();
  s_new |= suspect_;

  // M := messages from non-suspects, unwrapped to Π's view (peer STATE).
  pi_view_.clear();
  for (const auto& m : delivered) {
    if (options_.use_suspect_filter && s_new.contains(m.sender)) continue;
    if (!options_.use_suspect_filter && options_.use_round_tags &&
        !matching_.contains(m.sender)) {
      continue;  // even without suspects, Π only consumes same-round traffic
    }
    pi_view_.push_back(Message{m.sender, m.payload.at("STATE")});
  }

  // Π executes its round k = normalize(c_p).
  const int k = static_cast<int>(normalize_round(c_, final_round));
  s_ = protocol_->transition(self_, n_, s_, pi_view_, k);
  if (k == final_round) {
    decisions_.push_back(DecisionRecord{.process = self_,
                                        .iteration = iteration_of(c_),
                                        .at_actual_round = actual_round_,
                                        .value = protocol_->decision(s_),
                                        .input_used = current_input_});
  }
  suspect_ = std::move(s_new);

  // Round agreement (Figure 1) over the *unfiltered* ROUND tags.
  bool any = false;
  Round best = 0;
  for (const auto& m : delivered) {
    const Value& tag = m.payload.at("ROUND");
    if (!tag.is_int()) continue;
    const Round t = clamp_round_tag(tag.as_int());
    best = any ? std::max(best, t) : t;
    any = true;
  }
  c_ = (any ? best : clamp_round_tag(c_)) + 1;

  // Iteration boundary: re-establish an initial state of Π.
  if (normalize_round(c_, final_round) == 1) {
    reset_iteration(c_);
  }
}

Value CompiledProcess::snapshot_state() const {
  Value v;
  v["s"] = s_;
  v["c"] = Value(c_);
  Value::Array suspects;
  suspects.reserve(static_cast<std::size_t>(suspect_.count()));
  for (ProcessId q : suspect_) suspects.push_back(Value(static_cast<std::int64_t>(q)));
  v["suspect"] = Value(std::move(suspects));
  v["input"] = current_input_;
  return v;
}

void CompiledProcess::restore_state(const Value& state) {
  s_ = state.at("s");
  const Value& c = state.at("c");
  c_ = clamp_restored_round(
      c.is_int() ? c.as_int() : static_cast<Round>(state.hash() % 1000003));
  suspect_.clear();
  const Value& sus = state.at("suspect");
  if (sus.is_array()) {
    for (const auto& e : sus.as_array()) {
      if (e.is_int() && e.as_int() >= 0 && e.as_int() < n_) {
        suspect_.insert(static_cast<ProcessId>(e.as_int()));
      }
    }
  }
  current_input_ = state.at("input");
}

std::vector<std::unique_ptr<SyncProcess>> compile_protocol(
    int n, std::shared_ptr<const TerminatingProtocol> protocol,
    InputSource inputs, CompilerOptions options) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(
        std::make_unique<CompiledProcess>(p, n, protocol, inputs, options));
  }
  return procs;
}

}  // namespace ftss
