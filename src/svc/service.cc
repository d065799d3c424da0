#include "svc/service.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/profile.h"
#include "sim/corrupt.h"
#include "util/rng.h"

namespace ftss::svc {

namespace {

// The per-(client, seq) op generator.  A full Rng per client would cost
// ~2.5KB each (mt19937_64) — unaffordable at 10^6 clients — and closed-loop
// completion order must not perturb other clients' draws, so every op is an
// independent splitmix64 hash of (service seed, client, seq).
std::uint64_t op_hash(std::uint64_t seed, std::int64_t c, std::int64_t seq) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(c) *
                                          0x100000001b3ULL +
                                      static_cast<std::uint64_t>(seq)));
}

std::uint64_t pack_request(std::int64_t client, std::int64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) |
         (static_cast<std::uint64_t>(seq) & 0xffffffffULL);
}

// Commands carried by one decided value (0 for empty / garbage shapes).
std::int64_t batch_size_of(const Value& decision) {
  if (decision.is_array()) {
    return static_cast<std::int64_t>(decision.as_array().size());
  }
  return decision.is_map() ? 1 : 0;
}

}  // namespace

// --- fault plans ------------------------------------------------------------

std::string SvcFaultPlan::describe() const {
  std::string out = "crashes=" + std::to_string(crashes.size());
  out += " corruptions=" + std::to_string(corruptions.size());
  if (!corruptions.empty()) {
    out += " (";
    out += corruption_pattern_name(corruptions.front().pattern);
    out += "@t=" + std::to_string(corruptions.front().at) + ")";
  }
  return out;
}

SvcFaultPlan sample_svc_plan(std::uint64_t seed, int n, Time horizon) {
  SvcFaultPlan plan;
  Rng rng(seed ^ 0x53564350ULL);  // "SVCP"
  const int max_crashes = (n - 1) / 2;
  const int crashes = static_cast<int>(rng.uniform(0, max_crashes));
  std::vector<int> victims = rng.sample(n, crashes);
  for (int p : victims) {
    plan.crashes.push_back(
        {static_cast<ProcessId>(p), rng.uniform(horizon / 4, 3 * horizon / 4)});
  }
  if (rng.chance(0.7)) {
    static constexpr CorruptionPattern kPatterns[] = {
        CorruptionPattern::kPhaseFlags, CorruptionPattern::kRoundCounters,
        CorruptionPattern::kDetector, CorruptionPattern::kFull};
    const CorruptionPattern pattern = kPatterns[rng.uniform(0, 3)];
    const Time at = rng.uniform(horizon / 8, horizon / 2);
    std::vector<int> hit;
    if (rng.chance(0.5)) {
      for (int p = 0; p < n; ++p) hit.push_back(p);  // full systemic wave
    } else {
      hit = rng.sample(n, static_cast<int>(rng.uniform(1, n)));
      std::sort(hit.begin(), hit.end());
    }
    for (int p : hit) {
      plan.corruptions.push_back({static_cast<ProcessId>(p), at, pattern,
                                  static_cast<std::uint64_t>(
                                      rng.uniform(1, 1'000'000'000))});
    }
  }
  return plan;
}

SvcFaultPlan corruption_wave(int n, Time at, std::uint64_t seed) {
  SvcFaultPlan plan;
  for (int p = 0; p < n; ++p) {
    plan.corruptions.push_back({static_cast<ProcessId>(p), at,
                                CorruptionPattern::kFull, seed + p});
  }
  return plan;
}

Value corrupt_host_state(CorruptionPattern pattern, ProcessId p, int n,
                         Rng& rng) {
  // Only the channels the pattern targets appear in the result; the caller
  // overlays them on the live host snapshot so untargeted modules keep
  // their state (a detector-only corruption leaves consensus intact).
  Value corrupt = make_corrupt_state(pattern, p, n, rng);
  Value host;
  if (corrupt.contains("cons")) {
    Value rc;
    rc["k"] = Value(rng.uniform(0, 400));
    rc["inner"] = corrupt.at("cons");
    host["rcons"] = std::move(rc);
  }
  if (corrupt.contains("gfd")) host["gfd"] = corrupt.at("gfd");
  if (corrupt.contains("hb")) host["hb"] = corrupt.at("hb");
  return host;
}

// --- construction -----------------------------------------------------------

KvService::KvService(SvcConfig config) : config_(std::move(config)) {
  // A pump_interval below 1 never advances run() to the horizon.  A think
  // time below 1 lets a client issue twice in one tick, which the client
  // calendar's order relies on never happening.
  if (config_.pump_interval < 1) {
    throw std::invalid_argument("SvcConfig::pump_interval must be >= 1, got " +
                                std::to_string(config_.pump_interval));
  }
  if (config_.think_min < 1) {
    throw std::invalid_argument("SvcConfig::think_min must be >= 1, got " +
                                std::to_string(config_.think_min));
  }
  config_.async.seed = config_.seed;
  plane_ = std::make_unique<RequestPlane>(config_.batch,
                                          config_.pipeline_depth);
  replicas_.resize(config_.n);
  clients_.resize(config_.clients);
  due_slots_.assign(kDueSlots, -1);

  ConsensusSystemConfig sys;
  sys.n = config_.n;
  sys.async = config_.async;
  RequestPlane* plane = plane_.get();
  sim_ = build_repeated_consensus_system(
      sys, [plane](ProcessId, std::int64_t instance) {
        return plane->proposal(instance);
      });

  for (const auto& crash : config_.plan.crashes) {
    sim_->schedule_crash(crash.process, crash.at);
  }
  pending_corruptions_ = config_.plan.corruptions;
  std::stable_sort(pending_corruptions_.begin(), pending_corruptions_.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  // First submit per client, staggered deterministically over the arrival
  // window (independent of population size for the early clients).
  for (std::int64_t c = 0; c < config_.clients; ++c) {
    const Time spread = std::max<Time>(config_.arrival_spread, 1);
    schedule_client(c, static_cast<Time>(op_hash(config_.seed, c, -1) %
                                         static_cast<std::uint64_t>(spread)));
  }
}

KvService::~KvService() = default;

// --- clients ----------------------------------------------------------------

KvService::ClientOp KvService::client_op(std::int64_t c,
                                         std::int64_t seq) const {
  const std::uint64_t h = op_hash(config_.seed, c, seq);
  ClientOp op;
  op.read = static_cast<int>(h % 1000) < config_.read_permille;
  op.key = static_cast<std::int64_t>((h >> 10) %
                                     static_cast<std::uint64_t>(
                                         std::max<std::int64_t>(
                                             config_.keyspace, 1)));
  op.val = static_cast<std::int64_t>((h >> 16) % 1'000'000'000ULL);
  const Time span = std::max<Time>(config_.think_max - config_.think_min, 0);
  op.think =
      config_.think_min +
      static_cast<Time>((h >> 32) % static_cast<std::uint64_t>(span + 1));
  return op;
}

void KvService::schedule_client(std::int64_t c, Time at) {
  Client& client = clients_[c];
  assert(client.due < 0 && "a client is never due twice");
  std::int64_t& head =
      due_slots_[static_cast<std::size_t>(at) & (kDueSlots - 1)];
  client.due = at;
  client.next_due = head;
  head = c;
}

void KvService::issue_client_ops(Time now) {
  for (; due_cursor_ <= now; ++due_cursor_) {
    // Unlink the clients due at this tick; a later lap stays in the slot.
    std::int64_t& head =
        due_slots_[static_cast<std::size_t>(due_cursor_) & (kDueSlots - 1)];
    std::int64_t c = std::exchange(head, -1);
    due_now_.clear();
    while (c >= 0) {
      Client& client = clients_[c];
      const std::int64_t next = client.next_due;
      if (client.due == due_cursor_) {
        client.due = -1;
        due_now_.push_back(c);
      } else {
        client.next_due = head;
        head = c;
      }
      c = next;
    }
    std::sort(due_now_.begin(), due_now_.end());
    for (const std::int64_t id : due_now_) issue_client_op(id, now);
  }
}

void KvService::issue_client_op(std::int64_t c, Time now) {
  const std::int64_t seq = clients_[c].next_seq;
  if (config_.max_ops_per_client >= 0 && seq >= config_.max_ops_per_client) {
    return;
  }
  const ClientOp op = client_op(c, seq);
  ++clients_[c].next_seq;
  if (op.read) {
    serve_read(c, op, now);
    schedule_client(c, now + op.think);  // reads complete immediately
    return;
  }
  Command cmd;
  cmd.key = "k" + std::to_string(op.key);
  cmd.val = Value(op.val);
  cmd.client = c;
  cmd.seq = seq;
  plane_->submit(std::move(cmd));
  outstanding_.emplace(pack_request(c, seq), now);
  ++requests_submitted_;
  if (!config_.closed_loop) {
    // Open loop: the next op's submit time is fixed at issue time,
    // independent of when (or whether) this write completes.
    schedule_client(c, now + op.think);
  }
}

void KvService::serve_read(std::int64_t c, const ClientOp& op, Time now) {
  // Lease failover: the client's home replica, or the next live one.
  ProcessId serving = -1;
  for (int i = 0; i < config_.n; ++i) {
    const ProcessId p = static_cast<ProcessId>((c + i) % config_.n);
    if (!sim_->crashed(p)) {
      serving = p;
      break;
    }
  }
  if (serving < 0) {
    ++reads_rejected_;
    return;
  }
  const Replica& rs = replicas_[serving];
  // The lease: serve locally only when the applied state is provably
  // fresh — the newest applied instance decided within lease_bound.  A
  // replica whose application lags (corrupted era, backlog, partition from
  // decisions) must reject rather than return stale data, even if it is
  // still applying old instances at a steady pace.
  const Time staleness =
      now - std::max<Time>(rs.last_applied_decide_time, 0);
  if (staleness > config_.lease_bound) {
    ++reads_rejected_;
    return;
  }
  (void)rs.store.get("k" + std::to_string(op.key));
  metrics_.observe("svc_read_staleness", staleness,
                   bounds_for(BoundsFamily::kSimTime));
  ++reads_served_;
}

void KvService::complete_request(std::int64_t c, std::int64_t seq, Time now) {
  auto it = outstanding_.find(pack_request(c, seq));
  if (it == outstanding_.end()) return;  // duplicate decide or dedup'd apply
  metrics_.observe("svc_request_latency", now - it->second,
                   bounds_for(BoundsFamily::kSimTime));
  outstanding_.erase(it);
  ++requests_completed_;
  if (config_.closed_loop) {
    schedule_client(c, now + client_op(c, seq).think);
  }
}

// --- the pump ---------------------------------------------------------------

void KvService::scan_logs(Time now) {
  (void)now;
  for (int p = 0; p < config_.n; ++p) {
    Replica& rs = replicas_[p];
    const auto& log = repeated_view(*sim_, p)->decisions();
    for (; rs.log_consumed < log.size(); ++rs.log_consumed) {
      const AsyncDecision& d = log[rs.log_consumed];
      rs.pending.emplace(d.instance, std::make_pair(d.value, d.at_time));
      // Only the plane's own batch settles its assignment, whichever replica
      // logs it first: a corrupted-era value decided for the same instance
      // leaves the batch to reclaim().
      const Value* proposal = plane_->find_proposal(d.instance);
      if (proposal != nullptr && *proposal == d.value) {
        plane_->on_decided(d.instance);
      }
      auto [it, inserted] = decided_.try_emplace(
          d.instance, DecidedMeta{d.value, d.at_time, true});
      if (inserted) {
        max_decided_ = std::max(max_decided_, d.instance);
        const std::int64_t fill = batch_size_of(d.value);
        if (fill > 0) max_cmd_decided_ = std::max(max_cmd_decided_, d.instance);
        metrics_.observe("svc_batch_fill", fill,
                         bounds_for(BoundsFamily::kBatchFill));
      } else {
        it->second.first_time = std::min(it->second.first_time, d.at_time);
        if (!(it->second.value == d.value)) it->second.agreed = false;
      }
    }
  }
}

void KvService::apply_decided(Time now) {
  // Holes this far behind max-decided are skipped.
  constexpr std::int64_t kSkipGap = 8;
  // Every replica applies every decided value, so each distinct value is
  // decoded once per call, keyed by its COW node (scalars, which have none,
  // are decoded where they are applied).  An entry holds a copy of the
  // value, so its node cannot be freed and the address reused by another
  // value (a decision_transform result, say) within the call.
  //
  // Requests complete on the first application of a node only.  A second
  // walk of the same commands would be a no-op: every completion here uses
  // the same `now`, the first erases the request from outstanding_, nothing
  // is submitted before issue_client_ops runs after this call, and the
  // clients due at one tick issue in client order, whatever order they
  // were scheduled in, so the order of completions cannot matter either.
  struct Decoded {
    Value value;
    KvStore::Batch batch;
  };
  std::unordered_map<const void*, Decoded> decoded;
  for (int p = 0; p < config_.n; ++p) {
    if (sim_->crashed(p)) continue;
    Replica& rs = replicas_[p];
    // Learner catch-up (anti-entropy): merge decisions other replicas
    // logged that this one missed — the harness-level analog of the
    // old-instance DECIDE gossip inside RepeatedConsensus.  Because every
    // log is scanned before anyone applies, a hole can only be skipped
    // when NO replica holds its decision, which keeps skips symmetric
    // across live replicas (asymmetric skips would diverge the stores).
    for (auto it = decided_.lower_bound(rs.applied_through);
         it != decided_.end(); ++it) {
      rs.pending.emplace(it->first,
                         std::make_pair(it->second.value,
                                        it->second.first_time));
    }
    while (!rs.pending.empty()) {
      auto it = rs.pending.begin();
      if (it->first < rs.applied_through) {
        // A DECIDE for an instance this replica already skipped past.
        // Applying it out of order would diverge from replicas that applied
        // it in order; it belongs to the corrupted era either way.
        ++rs.late_learns_dropped;
        rs.pending.erase(it);
        continue;
      }
      if (it->first > rs.applied_through) {
        // A hole.  Only skip once the decided log has left it behind by
        // kSkipGap (it is then overwhelmingly a corrupted-era orphan whose
        // commands reclaim() re-proposes).  JUMP straight to the next
        // pending instance: a corrupted counter can sit at 10^15 and
        // stepping one-by-one would never terminate.
        if (max_decided_ >= rs.applied_through + kSkipGap) {
          rs.instances_skipped += it->first - rs.applied_through;
          rs.applied_through = it->first;
        } else {
          break;
        }
      }
      if (config_.apply_delay > 0 &&
          now < it->second.second + config_.apply_delay) {
        break;
      }
      const Value decision = config_.decision_transform
                                 ? config_.decision_transform(it->second.first)
                                 : it->second.first;
      KvStore::Batch scalar;
      const KvStore::Batch* batch = &scalar;
      bool first = true;
      if (const void* node = decision.node_identity()) {
        auto [cached, inserted] = decoded.try_emplace(node);
        if (inserted) {
          cached->second = {decision, KvStore::decode_batch(decision)};
        }
        batch = &cached->second.batch;
        first = inserted;
      } else {
        scalar = KvStore::decode_batch(decision);
      }
      rs.store.apply(*batch);
      if (first) {
        for (const KvStore::Batch::Entry& cmd : batch->entries) {
          if (cmd.client >= 0) complete_request(cmd.client, cmd.seq, now);
        }
      }
      rs.applied_through = it->first + 1;
      rs.last_applied_decide_time =
          std::max(rs.last_applied_decide_time, it->second.second);
      rs.pending.erase(it);
    }
  }
}

std::int64_t KvService::applied_floor() const {
  // The floor the pipeline window keys off: the slowest live replica's
  // application progress (crashed replicas no longer gate the window).
  std::int64_t floor = -1;
  bool any = false;
  for (int p = 0; p < config_.n; ++p) {
    if (sim_->crashed(p)) continue;
    const std::int64_t through = replicas_[p].applied_through - 1;
    floor = any ? std::min(floor, through) : through;
    any = true;
  }
  return any ? floor : -1;
}

void KvService::inject_due_corruptions(Time upto) {
  while (!pending_corruptions_.empty() &&
         pending_corruptions_.front().at <= upto) {
    const SvcFaultPlan::Corruption c = pending_corruptions_.front();
    pending_corruptions_.erase(pending_corruptions_.begin());
    if (sim_->crashed(c.process) || c.pattern == CorruptionPattern::kNone) {
      continue;
    }
    Rng rng(c.seed);
    Value host = sim_->process(c.process).snapshot_state();
    const Value overlay =
        corrupt_host_state(c.pattern, c.process, config_.n, rng);
    if (overlay.is_map()) {
      for (const auto& [channel, state] : overlay.as_map()) {
        host[channel] = state;
      }
    }
    sim_->process(c.process).restore_state(host);
    metrics_.add("svc_corruptions_injected");
  }
}

void KvService::pump(Time now) {
  {
    ScopedTimer timer(timers_.scan);
    scan_logs(now);
  }
  {
    ScopedTimer timer(timers_.apply);
    apply_decided(now);
  }
  {
    ScopedTimer timer(timers_.reclaim);
    plane_->set_applied_floor(applied_floor());
    // Undecided assignments this far behind max-decided are re-proposed.
    constexpr std::int64_t kReclaimGap = 4;
    if (max_decided_ >= 0) plane_->reclaim(max_decided_, kReclaimGap);
  }
  {
    ScopedTimer timer(timers_.issue);
    issue_client_ops(now);
  }
  metrics_.gauge_max("svc_queue_depth_peak", plane_->pending_depth());
  // Runahead of command-carrying instances over the applied floor: this is
  // what the pipeline window bounds.  (The FULL log is deliberately
  // unbounded — empty heartbeat instances keep it advancing while the
  // window is closed.)
  if (max_cmd_decided_ >= 0) {
    metrics_.gauge_max(
        "svc_cmd_lag_peak",
        max_cmd_decided_ - std::max<std::int64_t>(applied_floor(), 0));
  }
}

void KvService::step_to(Time t) {
  {
    ScopedTimer timer(timers_.run_until);
    sim_->run_until(t);
  }
  ran_until_ = t;
  inject_due_corruptions(t);
  pump(t);
}

void KvService::run() {
  if (ran_) throw std::logic_error("KvService::run called twice");
  timers_ = {&metrics_.timing("svc_run_until_ns"),
             &metrics_.timing("svc_scan_ns"), &metrics_.timing("svc_apply_ns"),
             &metrics_.timing("svc_reclaim_ns"),
             &metrics_.timing("svc_issue_ns")};
  Time t = 0;
  while (t < config_.horizon) {
    t = std::min<Time>(t + config_.pump_interval, config_.horizon);
    step_to(t);
  }
  if (config_.drain_cap > 0) {
    const Time cap = config_.horizon + config_.drain_cap;
    while (ran_until_ < cap && !(plane_->drained() && outstanding_.empty())) {
      t = std::min<Time>(t + config_.pump_interval, cap);
      step_to(t);
    }
  }
  metrics_.add("svc_requests_submitted", requests_submitted_);
  metrics_.add("svc_requests_completed", requests_completed_);
  metrics_.add("svc_reads_served", reads_served_);
  metrics_.add("svc_reads_rejected_stale", reads_rejected_);
  metrics_.add("svc_commands_retransmitted", plane_->retransmitted());
  metrics_.add("svc_backpressure_proposals",
               plane_->proposals_empty_backpressure());
  ran_ = true;
}

// --- report -----------------------------------------------------------------

SvcReport KvService::report() const {
  if (!ran_) throw std::logic_error("KvService::report before run");
  SvcReport r;
  r.requests_submitted = requests_submitted_;
  r.requests_completed = requests_completed_;
  r.requests_outstanding = static_cast<std::int64_t>(outstanding_.size());
  r.reads_served = reads_served_;
  r.reads_rejected_stale = reads_rejected_;
  r.commands_retransmitted = plane_->retransmitted();
  r.horizon = config_.horizon;
  r.ran_until = ran_until_;
  r.drained = plane_->drained() && outstanding_.empty();
  r.metrics = metrics_.snapshot();

  auto lat = r.metrics.histograms.find("svc_request_latency");
  if (lat != r.metrics.histograms.end()) {
    r.latency_p50 = lat->second.percentile_upper(50);
    r.latency_p90 = lat->second.percentile_upper(90);
    r.latency_p99 = lat->second.percentile_upper(99);
  }

  // Instance-level facts: canonical = the decided value is exactly the
  // plane's memoized proposal for that instance (anything else is a
  // corrupted-era artifact); clean additionally requires agreement.
  r.instances_decided = static_cast<std::int64_t>(decided_.size());
  std::vector<std::pair<std::int64_t, bool>> clean_flags;
  clean_flags.reserve(decided_.size());
  for (const auto& [instance, meta] : decided_) {
    const std::int64_t commands = batch_size_of(meta.value);
    r.commands_decided += commands;
    if (commands == 0) ++r.instances_empty;
    const Value* proposal = plane_->find_proposal(instance);
    const bool clean =
        meta.agreed && proposal != nullptr && *proposal == meta.value;
    clean_flags.emplace_back(instance, clean);
    if (!clean) ++r.dirty_instances;
  }
  auto dirty_after = clean_flags.rend();
  for (auto it = clean_flags.rbegin(); it != clean_flags.rend(); ++it) {
    if (!it->second) break;
    dirty_after = it;
  }
  if (dirty_after != clean_flags.rend()) r.clean_from = dirty_after->first;

  // Survivor stores.
  std::vector<ProcessId> survivors;
  for (int p = 0; p < config_.n; ++p) {
    if (!sim_->crashed(p)) survivors.push_back(p);
    r.instances_skipped += replicas_[p].instances_skipped;
    r.late_learns_dropped += replicas_[p].late_learns_dropped;
  }
  if (!survivors.empty()) {
    const KvStore& first = replicas_[survivors.front()].store;
    r.store_fingerprint = first.fingerprint();
    r.converged_full = true;
    for (ProcessId p : survivors) {
      if (!(replicas_[p].store == first)) r.converged_full = false;
    }
  }

  // Clean-era convergence: re-materialize each survivor's store from its own
  // log restricted to the contiguous clean suffix every survivor knows.
  if (r.clean_from && !survivors.empty()) {
    std::vector<std::map<std::int64_t, Value>> logs;
    for (ProcessId p : survivors) {
      std::map<std::int64_t, Value> by_instance;
      for (const AsyncDecision& d : repeated_view(*sim_, p)->decisions()) {
        by_instance.emplace(d.instance, d.value);
      }
      logs.push_back(std::move(by_instance));
    }
    std::int64_t cutoff = max_decided_;
    for (const auto& by_instance : logs) {
      std::int64_t c = *r.clean_from - 1;
      while (by_instance.count(c + 1)) ++c;
      cutoff = std::min(cutoff, c);
    }
    if (cutoff >= *r.clean_from) {
      using Entry = std::map<std::int64_t, Value>::const_iterator;
      struct Materialized {
        Entry begin, end;
        std::uint64_t fingerprint;
      };
      std::vector<Materialized> materialized;
      for (const auto& by_instance : logs) {
        const Entry begin = by_instance.lower_bound(*r.clean_from);
        const Entry end = by_instance.upper_bound(cutoff);
        // The store is a pure function of the suffix, so memoizing is exact.
        const bool seen = std::any_of(
            materialized.begin(), materialized.end(),
            [&](const Materialized& m) {
              return std::equal(begin, end, m.begin, m.end);
            });
        if (seen) continue;
        KvStore store;
        for (Entry it = begin; it != end; ++it) {
          store.apply_decision(it->second);
        }
        materialized.push_back({begin, end, store.fingerprint()});
      }
      r.converged_clean = std::all_of(
          materialized.begin(), materialized.end(),
          [&](const Materialized& m) {
            return m.fingerprint == materialized.front().fingerprint;
          });
    }
  }
  return r;
}

// --- report serialization ---------------------------------------------------

Value SvcReport::to_value() const {
  Value v;
  v["requests_submitted"] = Value(requests_submitted);
  v["requests_completed"] = Value(requests_completed);
  v["requests_outstanding"] = Value(requests_outstanding);
  v["reads_served"] = Value(reads_served);
  v["reads_rejected_stale"] = Value(reads_rejected_stale);
  v["latency_p50"] = Value(latency_p50);
  v["latency_p90"] = Value(latency_p90);
  v["latency_p99"] = Value(latency_p99);
  v["instances_decided"] = Value(instances_decided);
  v["instances_empty"] = Value(instances_empty);
  v["commands_decided"] = Value(commands_decided);
  v["commands_retransmitted"] = Value(commands_retransmitted);
  v["instances_skipped"] = Value(instances_skipped);
  v["late_learns_dropped"] = Value(late_learns_dropped);
  v["clean_from"] = clean_from ? Value(*clean_from) : Value();
  v["dirty_instances"] = Value(dirty_instances);
  v["converged_clean"] = Value(converged_clean);
  v["converged_full"] = Value(converged_full);
  v["store_fingerprint"] = Value(static_cast<std::int64_t>(store_fingerprint));
  v["horizon"] = Value(horizon);
  v["ran_until"] = Value(ran_until);
  v["drained"] = Value(drained);
  v["metrics"] = metrics.stable_value();
  return v;
}

std::uint64_t SvcReport::fingerprint() const { return to_value().hash(); }

std::string SvcReport::summary() const {
  std::string out;
  out += "requests " + std::to_string(requests_completed) + "/" +
         std::to_string(requests_submitted) + " completed";
  out += "; latency p50/p90/p99 = " + std::to_string(latency_p50) + "/" +
         std::to_string(latency_p90) + "/" + std::to_string(latency_p99);
  out += "; instances " + std::to_string(instances_decided) + " (" +
         std::to_string(dirty_instances) + " dirty)";
  if (clean_from) out += "; clean from " + std::to_string(*clean_from);
  out += "; converged clean=" + std::string(converged_clean ? "yes" : "no") +
         " full=" + std::string(converged_full ? "yes" : "no");
  return out;
}

}  // namespace ftss::svc
