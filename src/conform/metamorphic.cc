#include "conform/metamorphic.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "check/explorer.h"
#include "check/trial_build.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ftss {

namespace {

// One plain leg, full states recorded.
std::optional<History> run_history(const TrialPlan& plan, std::string* error) {
  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan, error);
  if (procs.empty()) return std::nullopt;
  SyncSimulator sim(trial_sync_config(plan), std::move(procs));
  configure_trial(sim, plan);
  sim.run_rounds(plan.rounds);
  return sim.history();
}

// Outbox shim applying a transform to every outgoing payload.  broadcast is
// expanded into per-destination sends (same destination order as the sync
// outbox) so each copy is transformed independently — with the deep-copy
// transform this severs all sharing between a broadcast's n copies.
class TransformOutbox : public Outbox {
 public:
  TransformOutbox(Outbox& inner, const PayloadTransform& transform)
      : inner_(inner), transform_(transform) {}

  void send(ProcessId to, Value payload) override {
    inner_.send(to, transform_(payload));
  }

  void broadcast(Value payload) override {
    for (ProcessId q = 0; q < inner_.process_count(); ++q) {
      inner_.send(q, transform_(payload));
    }
  }

  int process_count() const override { return inner_.process_count(); }

 private:
  Outbox& inner_;
  const PayloadTransform& transform_;
};

// SyncProcess decorator applying a transform to every Value crossing the
// process boundary: outgoing payloads, delivered payloads, state snapshots
// and restored (corrupted) states.
class PayloadTransformProcess : public SyncProcess {
 public:
  PayloadTransformProcess(std::unique_ptr<SyncProcess> inner,
                          PayloadTransform transform)
      : inner_(std::move(inner)), transform_(std::move(transform)) {}

  void begin_round(Outbox& out) override {
    TransformOutbox shim(out, transform_);
    inner_->begin_round(shim);
  }

  void end_round(const std::vector<Message>& delivered) override {
    std::vector<Message> copies;
    copies.reserve(delivered.size());
    for (const Message& m : delivered) {
      copies.push_back(Message{m.sender, transform_(m.payload)});
    }
    inner_->end_round(copies);
  }

  Value snapshot_state() const override {
    return transform_(inner_->snapshot_state());
  }
  void restore_state(const Value& state) override {
    inner_->restore_state(transform_(state));
  }
  std::optional<Round> round_counter() const override {
    return inner_->round_counter();
  }
  bool halted() const override { return inner_->halted(); }
  const ProcessSet* suspect_set() const override {
    return inner_->suspect_set();
  }

 private:
  std::unique_ptr<SyncProcess> inner_;
  PayloadTransform transform_;
};

OracleResult inapplicable(std::string oracle, std::string reason) {
  OracleResult res;
  res.oracle = std::move(oracle);
  res.applicable = false;
  res.skip_reason = std::move(reason);
  return res;
}

}  // namespace

std::string OracleResult::describe() const {
  std::ostringstream os;
  os << oracle << ": ";
  if (!applicable) {
    os << "skipped (" << skip_reason << ")";
  } else if (divergences.empty()) {
    os << "ok";
  } else {
    os << divergences.size() << " divergence(s)";
    for (const Divergence& d : divergences) os << "\n  " << ftss::describe(d);
  }
  return os.str();
}

OracleResult check_extension(const TrialPlan& plan, int split_at,
                             const ExtensionOptions& options) {
  OracleResult res;
  res.oracle = "extension";
  if (plan.rounds < 2) {
    return inapplicable("extension", "plan has fewer than 2 rounds");
  }
  const int k = std::clamp(split_at, 1, plan.rounds - 1);
  const int m = plan.rounds - k;

  std::string error;
  const std::optional<History> full = run_history(plan, &error);
  if (!full) return inapplicable("extension", "build: " + error);

  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan, &error);
  SyncSimulator sim(trial_sync_config(plan), std::move(procs));
  configure_trial(sim, plan);
  sim.run_rounds(k);
  History split;
  if (!options.restart_instead_of_extend) {
    sim.run_rounds(m);
    split = sim.history();
  } else {
    // TEST HOOK: a second, fresh simulator plays the remaining rounds.
    split = sim.history();
    std::vector<std::unique_ptr<SyncProcess>> fresh =
        build_trial_processes(plan, &error);
    SyncSimulator restarted(trial_sync_config(plan), std::move(fresh));
    configure_trial(restarted, plan);
    restarted.run_rounds(m);
    for (const RoundRecord& rec : restarted.history().rounds) {
      split.rounds.push_back(rec);
    }
  }
  res.divergences = diff_histories(*full, split);
  return res;
}

OracleResult check_permutation(const TrialPlan& plan,
                               const std::vector<ProcessId>& perm,
                               const PermutationOptions& options) {
  OracleResult res;
  res.oracle = "permutation";
  if (plan.mode == TrialMode::kCompiled) {
    return inapplicable("permutation",
                        "compiled protocols take id-dependent inputs");
  }
  if (plan.max_extra_delay > 0) {
    return inapplicable("permutation", "jitter draws follow id order");
  }
  for (const FaultSpec& f : plan.faults) {
    if (f.permille < 1000) {
      return inapplicable("permutation",
                          "probabilistic omission draws follow id order");
    }
  }
  {
    std::vector<bool> hit(plan.n, false);
    bool valid = static_cast<int>(perm.size()) == plan.n;
    for (const ProcessId q : perm) {
      if (q < 0 || q >= plan.n || hit[q]) {
        valid = false;
        break;
      }
      hit[q] = true;
    }
    if (!valid) {
      return inapplicable("permutation", "perm is not a permutation of [0,n)");
    }
  }

  std::string error;
  const std::optional<History> base = run_history(plan, &error);
  if (!base) return inapplicable("permutation", "build: " + error);
  const std::optional<History> renamed_run =
      run_history(permute_plan(plan, perm), &error);
  if (!renamed_run) return inapplicable("permutation", "build: " + error);

  History expected =
      options.skip_history_rename ? *base : permute_history(*base, perm);
  if (!options.skip_history_rename) {
    // Round-agreement payloads name their sender ({"type":"ROUND","p":...});
    // renaming the system renames that field too.  States ({"c":...}) are
    // id-free and need no rewrite.
    for (RoundRecord& rec : expected.rounds) {
      for (SendRecord& s : rec.sends) {
        if (!s.payload.is_map() || !s.payload.contains("p")) continue;
        const Value& pid = s.payload.at("p");
        if (pid.is_int() && pid.as_int() >= 0 && pid.as_int() < plan.n) {
          s.payload["p"] = Value(perm[static_cast<std::size_t>(pid.as_int())]);
        }
      }
    }
  }
  res.divergences = diff_histories(expected, *renamed_run);
  return res;
}

OracleResult check_trace_transparency(const TrialPlan& plan,
                                      const TracingOptions& options) {
  OracleResult res;
  res.oracle = "tracing";

  const TrialPlan& base_plan =
      options.baseline_override != nullptr ? *options.baseline_override : plan;
  TrialRunOptions plain;
  plain.record_states = true;
  History base;
  plain.history_out = &base;
  const TrialResult plain_result = run_trial(base_plan, plain);

  TraceTape tape;
  TrialRunOptions traced;
  traced.record_states = true;
  traced.trace = &tape;
  History with_trace;
  traced.history_out = &with_trace;
  const TrialResult traced_result = run_trial(plan, traced);

  res.divergences = diff_histories(base, with_trace);
  if (plain_result.metrics.fingerprint() != traced_result.metrics.fingerprint()) {
    res.divergences.push_back(Divergence{
        "metrics", plan.rounds, "traced and untraced metrics differ"});
  }
  if (tape.events().empty()) {
    res.divergences.push_back(Divergence{
        "trace", 0, "trace sink attached but no events were emitted"});
  }
  return res;
}

OracleResult check_cow_transparency(const TrialPlan& plan,
                                    const PayloadTransform& transform) {
  OracleResult res;
  res.oracle = "cow";
  const PayloadTransform t =
      transform ? transform : [](const Value& v) { return deep_copy_value(v); };

  std::string error;
  const std::optional<History> base = run_history(plan, &error);
  if (!base) return inapplicable("cow", "build: " + error);

  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan, &error);
  if (procs.empty()) return inapplicable("cow", "build: " + error);
  std::vector<std::unique_ptr<SyncProcess>> wrapped;
  wrapped.reserve(procs.size());
  for (auto& p : procs) {
    wrapped.push_back(
        std::make_unique<PayloadTransformProcess>(std::move(p), t));
  }
  SyncSimulator sim(trial_sync_config(plan), std::move(wrapped));
  configure_trial(sim, plan);
  sim.run_rounds(plan.rounds);

  res.divergences = diff_histories(*base, sim.history());
  return res;
}

std::vector<Divergence> replay_findings(std::vector<Divergence> notes,
                                        const History& sync,
                                        const History& replayed) {
  for (Divergence& d : diff_histories(sync, replayed)) {
    notes.push_back(std::move(d));
  }
  return notes;
}

OracleResult check_lockstep(const TrialPlan& plan,
                            const LockstepOptions& options) {
  LockstepResult leg = run_lockstep_trial(plan, options);
  if (!leg.supported) return inapplicable("lockstep", leg.unsupported_reason);
  OracleResult res;
  res.oracle = "lockstep";
  res.divergences = replay_findings(std::move(leg.notes), leg.sync_history,
                                    leg.event_history);
  return res;
}

OracleResult check_transport(const TrialPlan& plan,
                             const TransportOptions& options) {
  TransportResult leg = run_transport_trial(plan, options);
  if (!leg.supported) return inapplicable("transport", leg.unsupported_reason);
  OracleResult res;
  res.oracle = "transport";
  res.divergences = replay_findings(std::move(leg.notes), leg.sync_history,
                                    leg.transport_history);
  return res;
}

}  // namespace ftss
