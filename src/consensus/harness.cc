#include "consensus/harness.h"

#include <functional>
#include <stdexcept>

#include "sim/corrupt.h"

namespace ftss {

namespace {

// The module a node stacks on its detectors, given the Figure 4 ◇S view.
using TopModule =
    std::function<std::unique_ptr<Module>(ProcessId p, WeakDetect suspects)>;

std::unique_ptr<EventSimulator> build_system(
    const ConsensusSystemConfig& config, const TopModule& top) {
  std::vector<std::unique_ptr<AsyncProcess>> nodes;
  nodes.reserve(config.n);
  for (ProcessId p = 0; p < config.n; ++p) {
    auto hb = std::make_unique<HeartbeatFd>(p, config.n);
    WeakDetect weak = config.weaken_detector
                          ? weak_view(hb.get(), p, config.n)
                          : full_view(hb.get());
    auto gfd = std::make_unique<GossipStrongFd>(p, config.n, std::move(weak));
    WeakDetect suspects = full_view(gfd.get());
    std::vector<std::unique_ptr<Module>> modules;
    modules.push_back(std::move(hb));
    modules.push_back(std::move(gfd));
    modules.push_back(top(p, std::move(suspects)));
    nodes.push_back(std::make_unique<ModuleHost>(std::move(modules)));
  }
  return std::make_unique<EventSimulator>(config.async, std::move(nodes));
}

}  // namespace

std::unique_ptr<EventSimulator> build_consensus_system(
    const ConsensusSystemConfig& config) {
  if (static_cast<int>(config.inputs.size()) != config.n) {
    throw std::invalid_argument("need exactly n inputs");
  }
  return build_system(config, [&config](ProcessId p, WeakDetect suspects) {
    return std::make_unique<CtConsensus>(p, config.n, config.inputs[p],
                                         std::move(suspects),
                                         config.stabilization);
  });
}

std::unique_ptr<EventSimulator> build_repeated_consensus_system(
    const ConsensusSystemConfig& config, InputSource inputs) {
  return build_system(config, [&](ProcessId p, WeakDetect suspects) {
    return std::make_unique<RepeatedConsensus>(
        p, config.n, inputs, std::move(suspects), config.stabilization);
  });
}

namespace {
const ModuleHost& host_of(const EventSimulator& sim, ProcessId p) {
  return dynamic_cast<const ModuleHost&>(sim.process(p));
}
}  // namespace

const RepeatedConsensus* repeated_view(const EventSimulator& sim, ProcessId p) {
  return host_of(sim, p).find<RepeatedConsensus>("rcons");
}

std::optional<std::int64_t> RepeatedAsyncAnalysis::clean_from(
    int correct_count) const {
  std::optional<std::int64_t> from;
  for (auto it = instances.rbegin(); it != instances.rend(); ++it) {
    if (!(it->agreement && it->validity && it->deciders == correct_count)) {
      break;
    }
    from = it->instance;
  }
  return from;
}

int RepeatedAsyncAnalysis::clean_count(int correct_count) const {
  int count = 0;
  for (const auto& it : instances) {
    if (it.agreement && it.validity && it.deciders == correct_count) ++count;
  }
  return count;
}

RepeatedAsyncAnalysis analyze_repeated_async(const EventSimulator& sim,
                                             const InputSource& inputs,
                                             Time cutoff) {
  const int n = sim.process_count();
  std::map<std::int64_t, AsyncInstanceOutcome> by_instance;
  for (ProcessId p = 0; p < n; ++p) {
    if (sim.crashed(p)) continue;
    const RepeatedConsensus* view = repeated_view(sim, p);
    if (view == nullptr) continue;
    for (const auto& d : view->decisions()) {
      auto [it, inserted] = by_instance.try_emplace(d.instance);
      AsyncInstanceOutcome& oc = it->second;
      if (inserted) {
        oc.instance = d.instance;
        oc.agreement = true;
        oc.decision = d.value;
        oc.first_time = d.at_time;
        oc.last_time = d.at_time;
      }
      ++oc.deciders;
      if (d.value != oc.decision) oc.agreement = false;
      oc.first_time = std::min(oc.first_time, d.at_time);
      oc.last_time = std::max(oc.last_time, d.at_time);
    }
  }
  RepeatedAsyncAnalysis out;
  for (auto& [instance, oc] : by_instance) {
    if (cutoff > 0 && oc.first_time > cutoff) continue;  // still in flight
    for (ProcessId p = 0; p < n; ++p) {
      if (oc.decision == inputs(p, instance)) {
        oc.validity = true;
        break;
      }
    }
    out.instances.push_back(std::move(oc));
  }
  return out;
}

const CtConsensus* consensus_view(const EventSimulator& sim, ProcessId p) {
  return host_of(sim, p).find<CtConsensus>("cons");
}

const GossipStrongFd* strong_fd_view(const EventSimulator& sim, ProcessId p) {
  return host_of(sim, p).find<GossipStrongFd>("gfd");
}

const HeartbeatFd* heartbeat_view(const EventSimulator& sim, ProcessId p) {
  return host_of(sim, p).find<HeartbeatFd>("hb");
}

ConsensusOutcome evaluate_consensus(const EventSimulator& sim,
                                    const std::vector<Value>& inputs) {
  ConsensusOutcome out;
  bool first = true;
  out.agreement = true;
  for (ProcessId p = 0; p < sim.process_count(); ++p) {
    if (sim.crashed(p)) continue;
    ++out.correct_count;
    const CtConsensus* cons = consensus_view(sim, p);
    if (cons == nullptr || !cons->decided()) continue;
    ++out.decided_count;
    if (first) {
      out.decision = cons->decision();
      first = false;
    } else if (cons->decision() != out.decision) {
      out.agreement = false;
    }
    if (cons->decision_time()) {
      if (!out.last_decision_time ||
          *cons->decision_time() > *out.last_decision_time) {
        out.last_decision_time = cons->decision_time();
      }
    }
  }
  out.all_correct_decided =
      out.correct_count > 0 && out.decided_count == out.correct_count;
  for (const auto& input : inputs) {
    if (!first && input == out.decision) {
      out.validity = true;
      break;
    }
  }
  return out;
}

const char* corruption_pattern_name(CorruptionPattern pattern) {
  switch (pattern) {
    case CorruptionPattern::kNone:
      return "none";
    case CorruptionPattern::kPhaseFlags:
      return "phase-flags";
    case CorruptionPattern::kRoundCounters:
      return "round-counters";
    case CorruptionPattern::kDetector:
      return "detector";
    case CorruptionPattern::kFull:
      return "full";
  }
  return "?";
}

Value make_corrupt_state(CorruptionPattern pattern, ProcessId p, int n,
                         Rng& rng) {
  Value state;
  if (pattern == CorruptionPattern::kNone) return state;

  if (pattern == CorruptionPattern::kPhaseFlags ||
      pattern == CorruptionPattern::kFull) {
    Value cons;
    cons["r"] = Value(0);
    cons["est"] = Value(rng.uniform(-1000, 1000));
    cons["ts"] = Value(0);
    cons["sent_est"] = Value(true);    // "I already sent my estimate"
    cons["sent_reply"] = Value(true);  // "I already answered"
    cons["replied_ack"] = Value(rng.chance(0.5));
    cons["decided"] = Value(false);
    state["cons"] = std::move(cons);
  }
  if (pattern == CorruptionPattern::kRoundCounters) {
    Value cons;
    cons["r"] = Value(rng.uniform(0, 1'000'000) * (p + 1));
    cons["est"] = Value(rng.uniform(-1000, 1000));
    cons["ts"] = Value(rng.uniform(0, 100));
    cons["decided"] = Value(false);
    state["cons"] = std::move(cons);
  }
  if (pattern == CorruptionPattern::kDetector ||
      pattern == CorruptionPattern::kFull) {
    Value::Array nums, alive;
    for (int s = 0; s < n; ++s) {
      nums.push_back(Value(rng.uniform(0, 1'000'000)));
      alive.push_back(Value(false));  // everyone believed dead
    }
    Value gfd;
    gfd["num"] = Value(std::move(nums));
    gfd["alive"] = Value(std::move(alive));
    state["gfd"] = std::move(gfd);
    state["hb"] = random_value(rng, 1'000'000);
  }
  if (pattern == CorruptionPattern::kFull) {
    state["cons"]["r"] = Value(rng.uniform(0, 1'000'000) * (p + 1));
    state["cons"]["ts"] = Value(rng.uniform(0, 1'000'000));
    state["cons"]["tasks"] = random_value(rng, 1000);
    state["cons"]["buffered_cests"] = random_value(rng, 1000);
  }
  return state;
}

}  // namespace ftss
