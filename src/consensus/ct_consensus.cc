#include "consensus/ct_consensus.h"

#include <string>
#include <utility>

#include "util/numeric.h"

namespace ftss {

namespace {
// The phase messages, laid out as in ct_consensus.h.
Value est_body(std::int64_t r, const Value& est, std::int64_t ts) {
  return Value::tuple("E", r, est, ts);
}
Value cest_body(std::int64_t r, const Value& est) {
  return Value::tuple("C", r, est);
}
Value reply_body(std::int64_t r, bool ack) {
  return Value::tuple("A", r, ack);
}
Value decide_body(const Value& est) { return Value::tuple("D", est); }
Value gossip_body(std::int64_t r) { return Value::tuple("R", r); }

// The tag of a well-formed phase message, or 0.  Arity and element types
// are checked here, so a caller given a nonzero tag reads by position.
char phase_tag(const Value& body) {
  if (!body.is_array()) return 0;
  const Value::Array& m = body.as_array();
  if (m.empty() || !m[0].is_string() || m[0].as_string().size() != 1) return 0;
  const char tag = m[0].as_string()[0];
  switch (tag) {
    case 'D':
      return m.size() == 2 ? tag : 0;
    case 'R':
      return m.size() == 2 && m[1].is_int() ? tag : 0;
    case 'C':
      return m.size() == 3 && m[1].is_int() ? tag : 0;
    case 'A':
      return m.size() == 3 && m[1].is_int() && m[2].is_bool() ? tag : 0;
    case 'E':
      return m.size() == 4 && m[1].is_int() && m[3].is_int() ? tag : 0;
    default:
      return 0;
  }
}
}  // namespace

const Value* CtConsensus::decided_value(const Value& body) {
  return phase_tag(body) == 'D' ? &body.as_array()[1] : nullptr;
}

CtConsensus::CtConsensus(ProcessId self, int n, Value input,
                         WeakDetect suspects, StabilizationOptions options)
    : self_(self),
      n_(n),
      input_(std::move(input)),
      suspects_(std::move(suspects)),
      options_(options),
      est_(input_) {}

void CtConsensus::on_start(ModuleContext& ctx) {
  est_ = input_;
  ts_ = 0;
  r_ = 0;
  send_estimate(ctx);
}

void CtConsensus::send_estimate(ModuleContext& ctx) {
  ctx.send(coordinator(r_), est_body(r_, est_, ts_));
  sent_est_ = true;
}

void CtConsensus::enter_round(ModuleContext& ctx, std::int64_t r) {
  r_ = clamp_round_tag(r);
  sent_est_ = false;
  sent_reply_ = false;
  replied_ack_ = false;
  if (options_.gossip_round) {
    // Abandon all work of lower rounds (the paper's superimposition rule).
    tasks_.erase(tasks_.begin(), tasks_.lower_bound(r_));
  } else {
    // Baseline bookkeeping: concluded coordinator tasks far behind the main
    // line are inert — reclaim them so long runs stay bounded.  Unconcluded
    // old tasks are kept (late replies may still complete them).
    for (auto it = tasks_.begin();
         it != tasks_.end() && it->first + 2 * n_ < r_;) {
      it = it->second.concluded ? tasks_.erase(it) : std::next(it);
    }
  }
  buffered_cests_.erase(buffered_cests_.begin(), buffered_cests_.lower_bound(r_));
  send_estimate(ctx);
  // A coordinator answer buffered while we were behind?
  auto it = buffered_cests_.find(r_);
  if (it != buffered_cests_.end() && !decided_) {
    Value est = it->second;
    buffered_cests_.erase(it);
    accept_cest(ctx, est);
  }
}

void CtConsensus::maybe_jump(ModuleContext& ctx, std::int64_t r) {
  // With the round-agreement superimposition, adopt any higher round we
  // learn of; the baseline walks rounds in order instead.
  if (options_.gossip_round && r > r_ && !decided_) enter_round(ctx, r);
}

void CtConsensus::decide(ModuleContext& ctx, const Value& v) {
  if (decided_) return;
  decided_ = true;
  decision_ = v;
  decision_time_ = ctx.now();
  // Reliable broadcast of the decision: relay once on first delivery.  With
  // resends enabled, on_tick keeps re-broadcasting it (self-stabilizing
  // termination for late joiners).
  ctx.broadcast(decide_body(v));
}

void CtConsensus::accept_cest(ModuleContext& ctx, const Value& est) {
  // Phase 3, positive path: adopt the coordinator's estimate and ack.
  est_ = est;
  ts_ = r_;
  send_reply(ctx, true);
}

void CtConsensus::send_reply(ModuleContext& ctx, bool ack) {
  ctx.send(coordinator(r_), reply_body(r_, ack));
  sent_reply_ = true;
  replied_ack_ = ack;
  if (!options_.gossip_round) {
    // CT91 baseline: after answering, walk to the next round.
    enter_round(ctx, r_ + 1);
  }
}

void CtConsensus::handle_est(ModuleContext& ctx, ProcessId from, std::int64_t r,
                             const Value& est, std::int64_t ts) {
  if (coordinator(r) != self_) return;
  if (options_.gossip_round && r < r_) return;  // abandoned round
  CoordTask& task = tasks_[r];
  if (task.concluded) return;
  task.ests[from] = {est, ts};
  if (!task.cest && static_cast<int>(task.ests.size()) >= majority()) {
    // Phase 2: adopt an estimate with maximal timestamp.
    const Value* best = nullptr;
    std::int64_t best_ts = 0;
    for (const auto& [sender, pair] : task.ests) {
      if (best == nullptr || pair.second > best_ts) {
        best = &pair.first;
        best_ts = pair.second;
      }
    }
    task.cest = *best;
    ctx.broadcast(cest_body(r, *task.cest));
  }
}

void CtConsensus::handle_cest(ModuleContext& ctx, std::int64_t r,
                              const Value& est) {
  if (decided_) return;
  if (r < r_) return;  // stale round
  if (r > r_) {
    // We have not reached round r yet (baseline path; with gossip we would
    // already have jumped): buffer it for arrival.
    buffered_cests_[r] = est;
    return;
  }
  if (sent_reply_) return;
  accept_cest(ctx, est);
}

void CtConsensus::handle_reply(ModuleContext& ctx, ProcessId from,
                               std::int64_t r, bool ack) {
  if (coordinator(r) != self_) return;
  if (options_.gossip_round && r < r_) return;  // abandoned round
  CoordTask& task = tasks_[r];
  if (task.concluded || !task.cest) return;
  task.replies[from] = ack;
  if (static_cast<int>(task.replies.size()) < majority()) return;
  task.concluded = true;
  bool all_ack = true;
  for (const auto& [sender, ok] : task.replies) all_ack &= ok;
  if (all_ack) {
    decide(ctx, *task.cest);
  } else if (options_.gossip_round && r == r_ && !decided_) {
    // Round failed; with the superimposition we drive the agreed round
    // forward ourselves (the baseline already advanced after its own P3).
    enter_round(ctx, r_ + 1);
  }
}

void CtConsensus::on_tick(ModuleContext& ctx) {
  if (decided_) {
    if (options_.resend_phase_messages) ctx.broadcast(decide_body(decision_));
    return;
  }

  // Detector poll: a suspected coordinator ends phase 3 negatively.
  if (suspects_ && suspects_(coordinator(r_))) {
    if (!sent_reply_) {
      send_reply(ctx, false);  // baseline: send_reply advances the round
      if (options_.gossip_round) enter_round(ctx, r_ + 1);
    } else if (options_.gossip_round) {
      enter_round(ctx, r_ + 1);
    }
    return;
  }

  if (options_.resend_phase_messages) {
    // Re-send every message the current phase requires ([KP90]): the cure
    // for corrupted "already sent" state.
    send_estimate(ctx);
    if (sent_reply_) {
      ctx.send(coordinator(r_), reply_body(r_, replied_ack_));
    }
    auto it = tasks_.find(r_);
    if (it != tasks_.end() && it->second.cest && !it->second.concluded) {
      ctx.broadcast(cest_body(r_, *it->second.cest));
    }
  } else if (!sent_est_) {
    send_estimate(ctx);
  }

  if (options_.gossip_round) {
    ctx.broadcast(gossip_body(r_));
  }
}

void CtConsensus::on_message(ModuleContext& ctx, ProcessId from,
                             const Value& body) {
  const char tag = phase_tag(body);
  if (tag == 0) return;  // malformed: dropped unread
  const Value::Array& m = body.as_array();
  if (tag == 'D') {
    decide(ctx, m[1]);
    return;
  }
  const std::int64_t r = clamp_round_tag(m[1].as_int());
  maybe_jump(ctx, r);
  if (tag == 'E') {
    handle_est(ctx, from, r, m[2], clamp_round_tag(m[3].as_int()));
  } else if (tag == 'C') {
    handle_cest(ctx, r, m[2]);
  } else if (tag == 'A') {
    handle_reply(ctx, from, r, m[2].as_bool());
  }
  // 'R' (round gossip) needs no handling beyond maybe_jump.
}

Value CtConsensus::snapshot() const {
  Value v;
  v["r"] = Value(r_);
  v["est"] = est_;
  v["ts"] = Value(ts_);
  v["sent_est"] = Value(sent_est_);
  v["sent_reply"] = Value(sent_reply_);
  v["replied_ack"] = Value(replied_ack_);
  v["decided"] = Value(decided_);
  v["decision"] = decision_;
  Value tasks;
  for (const auto& [r, task] : tasks_) {
    Value t;
    Value ests;
    for (const auto& [p, pair] : task.ests) {
      ests[std::to_string(p)] = Value::array({pair.first, Value(pair.second)});
    }
    t["ests"] = ests;
    t["cest"] = task.cest ? *task.cest : Value();
    t["has_cest"] = Value(task.cest.has_value());
    Value replies;
    for (const auto& [p, ok] : task.replies) {
      replies[std::to_string(p)] = Value(ok);
    }
    t["replies"] = replies;
    t["concluded"] = Value(task.concluded);
    tasks[std::to_string(r)] = std::move(t);
  }
  v["tasks"] = std::move(tasks);
  Value cests;
  for (const auto& [r, est] : buffered_cests_) {
    cests[std::to_string(r)] = est;
  }
  v["buffered_cests"] = std::move(cests);
  return v;
}

void CtConsensus::restore(const Value& state) {
  const Value& r = state.at("r");
  r_ = clamp_restored_round(r.is_int() ? r.as_int()
                                       : static_cast<std::int64_t>(
                                             state.hash() % 1000003));
  est_ = state.at("est");
  ts_ = clamp_restored_round(state.at("ts").int_or(0));
  sent_est_ = state.at("sent_est").bool_or(false);
  sent_reply_ = state.at("sent_reply").bool_or(false);
  replied_ack_ = state.at("replied_ack").bool_or(false);
  decided_ = state.at("decided").bool_or(false);
  decision_ = state.at("decision");

  auto parse_pid = [this](const std::string& key) -> std::optional<ProcessId> {
    char* end = nullptr;
    const long id = std::strtol(key.c_str(), &end, 10);
    if (end == key.c_str() || *end != '\0' || id < 0 || id >= n_) {
      return std::nullopt;
    }
    return static_cast<ProcessId>(id);
  };
  auto parse_round = [](const std::string& key) -> std::optional<std::int64_t> {
    char* end = nullptr;
    const long long parsed = std::strtoll(key.c_str(), &end, 10);
    if (end == key.c_str() || *end != '\0') return std::nullopt;
    return clamp_restored_round(parsed);
  };

  tasks_.clear();
  const Value& tasks = state.at("tasks");
  if (tasks.is_map()) {
    for (const auto& [key, tv] : tasks.as_map()) {
      auto round = parse_round(key);
      if (!round || coordinator(*round) != self_) continue;
      CoordTask task;
      const Value& ests = tv.at("ests");
      if (ests.is_map()) {
        for (const auto& [pkey, pair] : ests.as_map()) {
          auto pid = parse_pid(pkey);
          if (!pid || !pair.is_array() || pair.size() != 2) continue;
          task.ests[*pid] = {pair.as_array()[0],
                             clamp_restored_round(pair.as_array()[1].int_or(0))};
        }
      }
      if (tv.at("has_cest").bool_or(false)) task.cest = tv.at("cest");
      const Value& replies = tv.at("replies");
      if (replies.is_map()) {
        for (const auto& [pkey, ok] : replies.as_map()) {
          auto pid = parse_pid(pkey);
          if (pid) task.replies[*pid] = ok.bool_or(false);
        }
      }
      task.concluded = tv.at("concluded").bool_or(false);
      tasks_[*round] = std::move(task);
    }
  }

  buffered_cests_.clear();
  const Value& cests = state.at("buffered_cests");
  if (cests.is_map()) {
    for (const auto& [key, est] : cests.as_map()) {
      auto round = parse_round(key);
      if (round) buffered_cests_[*round] = est;
    }
  }
}

}  // namespace ftss
