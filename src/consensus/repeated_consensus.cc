#include "consensus/repeated_consensus.h"

#include <utility>

#include "util/numeric.h"

namespace ftss {

RepeatedConsensus::RepeatedConsensus(ProcessId self, int n, InputSource inputs,
                                     WeakDetect suspects,
                                     StabilizationOptions options)
    : self_(self),
      n_(n),
      inputs_(std::move(inputs)),
      suspects_(std::move(suspects)),
      options_(options) {
  inner_ = std::make_unique<CtConsensus>(self_, n_, inputs_(self_, k_),
                                         suspects_, options_);
}

void RepeatedConsensus::start_instance(ModuleContext& ctx, std::int64_t k,
                                       bool run_start) {
  k_ = std::max<std::int64_t>(clamp_restored_round(k), 0);
  inner_ = std::make_unique<CtConsensus>(self_, n_, inputs_(self_, k_),
                                         suspects_, options_);
  if (run_start) {
    const Value tag(k_);
    ModuleContext inner_ctx(ctx, tag);
    inner_->on_start(inner_ctx);
  }
}

// Instances are unique in the log.  One above every logged instance (a
// local decision, almost always) cannot be there; any other is looked for
// newest-first, since old-instance DECIDEs name recent instances.
void RepeatedConsensus::log_decision(std::int64_t instance, const Value& v,
                                     Time t, bool local) {
  if (log_.empty() || instance > max_logged_) {
    max_logged_ = instance;
  } else {
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
      if (it->instance == instance) return;
    }
  }
  log_.push_back(AsyncDecision{instance, v, t, local});
}

std::optional<Value> RepeatedConsensus::decision_of(
    std::int64_t instance) const {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->instance == instance) return it->value;
  }
  return std::nullopt;
}

void RepeatedConsensus::after_inner_step(ModuleContext& ctx) {
  if (!inner_->decided()) return;
  log_decision(k_, inner_->decision(), ctx.now(), /*local=*/true);
  // Instance finished: begin the next one.  The final DECIDE broadcast for
  // instance k was already emitted by the inner protocol when it decided.
  start_instance(ctx, k_ + 1, /*run_start=*/true);
}

void RepeatedConsensus::on_start(ModuleContext& ctx) {
  start_instance(ctx, 0, /*run_start=*/true);
}

void RepeatedConsensus::on_tick(ModuleContext& ctx) {
  const Value tag(k_);
  ModuleContext inner_ctx(ctx, tag);
  inner_->on_tick(inner_ctx);
  after_inner_step(ctx);
}

void RepeatedConsensus::on_message(ModuleContext& ctx, ProcessId from,
                                   const Value& body) {
  // [k, inner body]; anything else is dropped unread.
  if (!body.is_array()) return;
  const Value::Array& tagged = body.as_array();
  if (tagged.size() != 2 || !tagged[0].is_int()) return;
  const std::int64_t k = clamp_round_tag(tagged[0].as_int());
  const Value& inner_body = tagged[1];

  if (k > k_) {
    // Instance-level agreement: abandon the current instance, adopt the
    // higher one, then process the triggering message in it.
    start_instance(ctx, k, /*run_start=*/true);
  } else if (k < k_) {
    // Old instance: only its decision is of interest (fills skip holes).
    if (const Value* v = CtConsensus::decided_value(inner_body)) {
      log_decision(k, *v, ctx.now(), /*local=*/false);
    }
    return;
  }
  if (k_ == k) {
    const Value tag(k_);
    ModuleContext inner_ctx(ctx, tag);
    inner_->on_message(inner_ctx, from, inner_body);
    after_inner_step(ctx);
  }
}

Value RepeatedConsensus::snapshot() const {
  Value v;
  v["k"] = Value(k_);
  v["inner"] = inner_->snapshot();
  return v;
}

void RepeatedConsensus::restore(const Value& state) {
  const Value& k = state.at("k");
  k_ = std::max<std::int64_t>(
      clamp_restored_round(k.is_int() ? k.as_int()
                                      : static_cast<std::int64_t>(
                                            state.hash() % 1000003)),
      0);
  inner_ = std::make_unique<CtConsensus>(self_, n_, inputs_(self_, k_),
                                         suspects_, options_);
  inner_->restore(state.at("inner"));
}

}  // namespace ftss
