#include "consensus/repeated_consensus.h"

#include <utility>

#include "util/numeric.h"

namespace ftss {

// Adapter that lets the inner CtConsensus speak through our module channel
// with every payload wrapped as {"k": instance, "b": <inner payload>}.
// Valid only for the duration of one handler call.
class RepeatedConsensus::InstanceContext : public AsyncContext {
 public:
  InstanceContext(ModuleContext& outer, std::int64_t k)
      : outer_(outer), k_(k) {}

  Time now() const override { return outer_.now(); }
  ProcessId self() const override { return outer_.self(); }
  int process_count() const override { return outer_.process_count(); }

  void send(ProcessId to, Value payload) override {
    outer_.send(to, wrap(std::move(payload)));
  }
  void broadcast(const Value& payload) override {
    // Wrapped once: the outer broadcast enqueues one copy per destination
    // in id order, the same destinations, order and delay draws as one
    // send per destination; only the wrapper nodes are shared.
    outer_.broadcast(wrap(payload));
  }

 private:
  Value wrap(Value payload) const {
    Value v;
    v["k"] = Value(k_);
    v["b"] = std::move(payload);
    return v;
  }

  ModuleContext& outer_;
  std::int64_t k_;
};

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
    InstanceContext ic(ctx, k_);
    ModuleContext inner_ctx(ic, "cons");
    inner_->on_start(inner_ctx);
  }
}

void RepeatedConsensus::log_decision(std::int64_t instance, const Value& v,
                                     Time t, bool local) {
  for (const auto& d : log_) {
    if (d.instance == instance) return;
  }
  log_.push_back(AsyncDecision{instance, v, t, local});
}

std::optional<Value> RepeatedConsensus::decision_of(
    std::int64_t instance) const {
  for (const auto& d : log_) {
    if (d.instance == instance) return d.value;
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
  InstanceContext ic(ctx, k_);
  ModuleContext inner_ctx(ic, "cons");
  inner_->on_tick(inner_ctx);
  after_inner_step(ctx);
}

void RepeatedConsensus::on_message(ModuleContext& ctx, ProcessId from,
                                   const Value& body) {
  const Value& kv = body.at("k");
  if (!kv.is_int()) return;
  const std::int64_t k = clamp_round_tag(kv.as_int());
  // The inner payload is a module-wrapped {"mod","body"} envelope; unwrap.
  const Value& inner_body = body.at("b").at("body");

  if (k > k_) {
    // Instance-level agreement: abandon the current instance, adopt the
    // higher one, then process the triggering message in it.
    start_instance(ctx, k, /*run_start=*/true);
  } else if (k < k_) {
    // Old instance: only its decision is of interest (fills skip holes).
    if (inner_body.at("t").string_or("") == "D") {
      log_decision(k, inner_body.at("est"), ctx.now(), /*local=*/false);
    }
    return;
  }
  if (k_ == k) {
    InstanceContext ic(ctx, k_);
    ModuleContext inner_ctx(ic, "cons");
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
