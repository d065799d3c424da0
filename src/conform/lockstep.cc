#include "conform/lockstep.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "async/event_sim.h"
#include "check/trial_build.h"
#include "obs/metrics.h"
#include "sim/causality.h"
#include "sim/fate_schedule.h"
#include "sim/simulator.h"

namespace ftss {

namespace {

// A message the event leg has handed to the network: its resolved fate plus
// everything needed to reconstruct the observer record at delivery time.
struct Pending {
  ProcessId sender = -1;
  ProcessId dest = -1;
  Round sent_round = 0;
  Round delivery_round = 0;
  int fate = kFateDelivered;
  Value payload;
  ProcessSet influence;  // sender's happened-before snapshot at send time
  bool resolved = false;
};

class LockstepDriver;

// AsyncProcess shell around one SyncProcess: all round mechanics live in the
// driver; the adapter only forwards activations and holds the per-round
// delivery buffer (the event-leg analogue of the sync simulator's inbox).
class LockstepAdapter : public AsyncProcess {
 public:
  LockstepAdapter(LockstepDriver* driver, ProcessId self,
                  std::unique_ptr<SyncProcess> proc)
      : driver_(driver), self_(self), proc_(std::move(proc)) {}

  void on_tick(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override;

  Value snapshot_state() const override { return proc_->snapshot_state(); }
  void restore_state(const Value& state) override {
    proc_->restore_state(state);
  }

  SyncProcess& proc() { return *proc_; }
  std::vector<Message>& buffer() { return buffer_; }

 private:
  LockstepDriver* driver_;
  ProcessId self_;
  std::unique_ptr<SyncProcess> proc_;
  std::vector<Message> buffer_;
};

class LockstepDriver {
 public:
  LockstepDriver(const TrialPlan& plan, const LockstepOptions& options,
                 LockstepResult* result)
      : plan_(plan),
        options_(options),
        result_(result),
        n_(plan.n),
        final_(plan.rounds),
        causality_(plan.n),
        fault_manifested_(plan.n, false),
        crash_round_(plan.n) {}

  void run();

  // Adapter callbacks. -------------------------------------------------------
  void on_round_tick(ProcessId p, AsyncContext& ctx);
  void on_wire_message(ProcessId dest, ProcessId from, const Value& wire,
                       AsyncContext& ctx);

 private:
  static constexpr int kMaxReports = 16;

  bool unsupported(std::string reason) {
    result_->supported = false;
    result_->unsupported_reason = std::move(reason);
    return false;
  }

  void report(const char* kind, Round r, std::string detail) {
    if (static_cast<int>(result_->divergences.size()) < kMaxReports) {
      result_->divergences.push_back(Divergence{kind, r, std::move(detail)});
    }
  }

  void mark_faulty(ProcessId p) { fault_manifested_[p] = true; }

  RoundRecord& rec_of(Round r) { return h2_.rounds.at(r - 1); }

  bool extract_schedule(const History& h1);
  void begin_round_record(Round r);
  void finalize_round(Round r, const EventSimulator& sim);
  void flush_lost();
  void handle_send(Round r, Message&& m, AsyncContext& ctx);
  void finish(const EventSimulator& sim);

  const TrialPlan& plan_;
  const LockstepOptions options_;
  LockstepResult* result_;
  const int n_;
  const Round final_;

  std::unique_ptr<SyncSimulator> sync_;
  std::vector<LockstepAdapter*> adapters_;
  std::map<FateScheduleKey, FateQueue> fates_;
  std::vector<Pending> pendings_;
  History h2_;
  CausalityTracker causality_;
  std::vector<bool> fault_manifested_;
  std::vector<std::optional<Round>> crash_round_;
  bool any_suspects_ = false;
  int delivered_seen_ = 0;
  Time pending_delay_ = 0;
};

void LockstepAdapter::on_tick(AsyncContext& ctx) {
  driver_->on_round_tick(self_, ctx);
}

void LockstepAdapter::on_message(AsyncContext& ctx, ProcessId from,
                                 const Value& payload) {
  driver_->on_wire_message(self_, from, payload, ctx);
}

bool LockstepDriver::extract_schedule(const History& h1) {
  FateSchedule schedule = extract_fate_schedule(h1);
  if (!schedule.ok) return unsupported("sync " + schedule.error);
  fates_ = std::move(schedule.fates);
  return true;
}

void LockstepDriver::begin_round_record(Round r) {
  RoundRecord rec;
  rec.round = r;
  rec.alive.assign(n_, false);  // flipped by each tick that actually fires
  rec.halted.resize(n_);
  rec.state.resize(n_);
  rec.clock.resize(n_);
  if (any_suspects_) rec.suspects.resize(n_);
  h2_.rounds.push_back(std::move(rec));
  // A crash manifests the fault at the start of its round, as in the sync
  // observer; omissions manifest only when they actually drop something.
  for (ProcessId p = 0; p < n_; ++p) {
    if (crash_round_[p] && r >= *crash_round_[p]) mark_faulty(p);
  }
}

void LockstepDriver::on_round_tick(ProcessId p, AsyncContext& ctx) {
  const Round r = ctx.now() / kRoundPeriod;
  LockstepAdapter& a = *adapters_.at(p);
  SyncProcess& proc = a.proc();

  // The tick of round r first closes round r-1: consume its buffered
  // deliveries (sorted by sender, as the sync inbox is).
  if (r >= 2) {
    auto& buf = a.buffer();
    if (!proc.halted()) {
      const auto by_sender = [](const Message& x, const Message& y) {
        return x.sender < y.sender;
      };
      if (!std::is_sorted(buf.begin(), buf.end(), by_sender)) {
        std::stable_sort(buf.begin(), buf.end(), by_sender);
      }
      proc.end_round(buf);
    }
    buf.clear();
  }
  if (r > final_) return;  // the one-past-the-end tick only closes books

  // Start-of-round observation, then the send phase.
  RoundRecord& rec = rec_of(r);
  rec.alive[p] = true;
  rec.halted[p] = proc.halted();
  rec.state[p] = proc.snapshot_state();
  rec.clock[p] = proc.round_counter();
  if (any_suspects_) {
    if (const ProcessSet* s = proc.suspect_set()) {
      rec.suspects[p].assign(s->begin(), s->end());
    }
  }
  if (!proc.halted()) {
    std::vector<Message> outgoing;
    CollectOutbox out(p, n_, &outgoing);
    proc.begin_round(out);
    for (Message& m : outgoing) handle_send(r, std::move(m), ctx);
  }
}

void LockstepDriver::handle_send(Round r, Message&& m, AsyncContext& ctx) {
  const auto it = fates_.find(FateScheduleKey{r, m.sender, m.dest});
  if (it == fates_.end() || it->second.next >= it->second.fates.size()) {
    std::ostringstream os;
    os << "event leg sent an unscheduled message p" << m.sender << "->p"
       << m.dest;
    report("schedule", r, os.str());
    return;
  }
  const ResolvedFate fate = it->second.fates[it->second.next++];

  if (fate.code == kFateDroppedBySender) {
    // Never enters the network; the observer records the drop at send time.
    SendRecord sr;
    sr.sender = m.sender;
    sr.dest = m.dest;
    sr.sent_round = r;
    sr.delivery_round = r;
    sr.payload = std::move(m.payload);
    sr.dropped_by_sender = true;
    rec_of(r).sends.push_back(std::move(sr));
    mark_faulty(m.sender);
    return;
  }

  const auto id = static_cast<std::int64_t>(pendings_.size());
  Pending pend;
  pend.sender = m.sender;
  pend.dest = m.dest;
  pend.sent_round = r;
  pend.delivery_round = fate.delivery_round;
  pend.fate = fate.code;
  pend.payload = m.payload;
  pend.influence = causality_.send_snapshot(m.sender);
  pendings_.push_back(std::move(pend));

  Value wire;
  wire["id"] = Value(id);
  wire["sr"] = Value(r);
  wire["b"] = std::move(m.payload);
  // Side-channel to the delay policy: land exactly at the resolved round's
  // delivery instant.  Lost-in-flight fates resolve past the final round, so
  // their events are scheduled but never dispatched.
  pending_delay_ =
      fate.delivery_round * kRoundPeriod + kDeliverOffset - ctx.now();
  ctx.send(m.dest, std::move(wire));
}

void LockstepDriver::on_wire_message(ProcessId dest, ProcessId from,
                                     const Value& wire, AsyncContext& ctx) {
  const Time now = ctx.now();
  const Round r = now / kRoundPeriod;
  const std::int64_t id = wire.is_map() ? wire.at("id").int_or(-1) : -1;
  if (id < 0 || id >= static_cast<std::int64_t>(pendings_.size())) {
    report("schedule", r, "delivery of a message the driver never sent");
    return;
  }
  Pending& pend = pendings_[static_cast<std::size_t>(id)];
  if (pend.resolved) {
    report("schedule", r, "duplicate delivery of one message");
    return;
  }
  pend.resolved = true;
  if (pend.sender != from || pend.dest != dest || pend.delivery_round != r ||
      now % kRoundPeriod != kDeliverOffset) {
    std::ostringstream os;
    os << "delivery off schedule: expected p" << pend.sender << "->p"
       << pend.dest << " due round " << pend.delivery_round << ", got p"
       << from << "->p" << dest << " at time " << now;
    report("schedule", r, os.str());
    return;
  }
  if (pend.fate == kFateDestCrashed || pend.fate == kFateLostInFlight) {
    // The event simulator should have withheld this dispatch on its own
    // (crash gating / run horizon); reaching the adapter is a divergence.
    std::ostringstream os;
    os << "p" << from << "->p" << dest << " dispatched despite "
       << (pend.fate == kFateDestCrashed ? "a crashed destination"
                                     : "being lost in flight");
    report("schedule", r, os.str());
    return;
  }

  SendRecord sr;
  sr.sender = from;
  sr.dest = dest;
  sr.sent_round = pend.sent_round;
  sr.delivery_round = r;
  sr.payload = wire.at("b");
  if (pend.fate == kFateDroppedByReceiver) {
    sr.dropped_by_receiver = true;
    mark_faulty(dest);
  } else {
    if (delivered_seen_++ == options_.drop_delivery_index) return;  // TEST HOOK
    sr.delivered = true;
    causality_.deliver_snapshot(pend.influence, dest);
    adapters_.at(dest)->buffer().push_back(Message{from, dest, wire.at("b")});
  }
  rec_of(r).sends.push_back(std::move(sr));
}

void LockstepDriver::finalize_round(Round r, const EventSimulator& sim) {
  // Messages due this round that never reached an adapter: the event
  // simulator withheld them, which is correct exactly when the sync leg
  // resolved the destination as crashed.
  for (Pending& pend : pendings_) {
    if (pend.resolved || pend.delivery_round != r) continue;
    pend.resolved = true;
    SendRecord sr;
    sr.sender = pend.sender;
    sr.dest = pend.dest;
    sr.sent_round = pend.sent_round;
    sr.delivery_round = r;
    sr.payload = pend.payload;
    sr.dest_crashed = true;
    if (pend.fate != kFateDestCrashed || !sim.crashed(pend.dest)) {
      std::ostringstream os;
      os << "p" << pend.sender << "->p" << pend.dest
         << " vanished in the event leg (resolved fate " << pend.fate
         << ", event-sim crashed(dest)=" << sim.crashed(pend.dest) << ")";
      report("schedule", r, os.str());
    }
    rec_of(r).sends.push_back(std::move(sr));
  }

  RoundRecord& rec = rec_of(r);
  rec.faulty_by_now = fault_manifested_;
  ProcessSet correct(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (!fault_manifested_[p]) correct.insert(p);
  }
  rec.coterie = causality_.coterie(correct).to_bools();
}

void LockstepDriver::flush_lost() {
  // Mirror of the sync observer's books-closing: sends still in flight when
  // the run stops become lost_in_flight records in the final round, in
  // delivery-round order.
  std::vector<const Pending*> lost;
  for (const Pending& pend : pendings_) {
    if (!pend.resolved && pend.delivery_round > final_) lost.push_back(&pend);
  }
  std::stable_sort(lost.begin(), lost.end(),
                   [](const Pending* a, const Pending* b) {
                     return a->delivery_round < b->delivery_round;
                   });
  for (const Pending* pend : lost) {
    SendRecord sr;
    sr.sender = pend->sender;
    sr.dest = pend->dest;
    sr.sent_round = pend->sent_round;
    sr.delivery_round = pend->delivery_round;
    sr.payload = pend->payload;
    sr.lost_in_flight = true;
    rec_of(final_).sends.push_back(std::move(sr));
  }
}

void LockstepDriver::finish(const EventSimulator& sim) {
  // Sends the sync leg scheduled but the event leg never attempted.
  for (const auto& [key, fq] : fates_) {
    if (fq.next < fq.fates.size()) {
      std::ostringstream os;
      os << "p" << std::get<1>(key) << "->p" << std::get<2>(key) << ": "
         << (fq.fates.size() - fq.next)
         << " sync-scheduled send(s) never attempted by the event leg";
      report("schedule", std::get<0>(key), os.str());
    }
  }

  // Crash-vector agreement between the engines' own crash machinery.
  for (ProcessId p = 0; p < n_; ++p) {
    const bool sc = sync_->crashed(p);
    const bool ec = sim.crashed(p);
    if (sc != ec) {
      report("crashed", final_,
             "p" + std::to_string(p) + ": sync " + (sc ? "crashed" : "alive") +
                 " vs event " + (ec ? "crashed" : "alive"));
    }
  }

  // Post-final-round process agreement for survivors.  (A crashed process's
  // in-memory state is unspecified past its crash and is not compared.)
  for (ProcessId p = 0; p < n_; ++p) {
    if (sync_->crashed(p) || sim.crashed(p)) continue;
    const SyncProcess& sp = sync_->process(p);
    const SyncProcess& ep = adapters_.at(p)->proc();
    if (!(sp.snapshot_state() == ep.snapshot_state()) ||
        sp.halted() != ep.halted()) {
      report("final-state", final_,
             "p" + std::to_string(p) + ": " + sp.snapshot_state().to_string() +
                 " vs " + ep.snapshot_state().to_string());
    }
    if (sp.round_counter() != ep.round_counter()) {
      report("final-clock", final_, "p" + std::to_string(p));
    }
  }

  result_->event_history = h2_;
  for (Divergence& d : diff_histories(result_->sync_history, h2_)) {
    result_->divergences.push_back(std::move(d));
  }
  result_->sync_fingerprint = history_fingerprint(result_->sync_history);
  result_->event_fingerprint = history_fingerprint(h2_);

  MetricsRegistry ms, me;
  record_history_metrics(result_->sync_history, ms);
  record_history_metrics(h2_, me);
  if (ms.snapshot().fingerprint() != me.snapshot().fingerprint()) {
    report("metrics", final_, "derived metrics snapshots differ");
  }
}

void LockstepDriver::run() {
  if (final_ < 1) {
    unsupported("plan has no rounds");
    return;
  }
  // Every tick must precede every delivery within a round window, and each
  // process needs a distinct tick offset.
  if (n_ < 1 || n_ > static_cast<int>(kDeliverOffset)) {
    unsupported("n out of range for the lock-step tick stagger");
    return;
  }

  // Sync leg: run, and resolve the plan's randomness from its history.
  std::string error;
  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan_, &error);
  if (procs.empty()) {
    unsupported("build: " + error);
    return;
  }
  SyncConfig scfg;
  scfg.seed = plan_.trial_seed;
  scfg.record_states = true;
  scfg.max_extra_delay = plan_.max_extra_delay;
  scfg.threads = 0;  // inherit the process-wide lane default
  sync_ = std::make_unique<SyncSimulator>(scfg, std::move(procs));
  configure_trial(*sync_, plan_);
  sync_->run_rounds(static_cast<int>(final_));
  result_->sync_history = sync_->history();
  if (!extract_schedule(result_->sync_history)) return;

  // Event leg: fresh processes behind adapters, same corruptions, crashes
  // handed to the event simulator's own gating.
  std::vector<std::unique_ptr<SyncProcess>> fresh =
      build_trial_processes(plan_, &error);
  if (fresh.empty()) {
    unsupported("rebuild: " + error);
    return;
  }
  std::vector<std::unique_ptr<AsyncProcess>> adapters;
  adapters.reserve(fresh.size());
  for (ProcessId p = 0; p < n_; ++p) {
    if (fresh[p]->suspect_set() != nullptr) any_suspects_ = true;
    auto a = std::make_unique<LockstepAdapter>(this, p, std::move(fresh[p]));
    adapters_.push_back(a.get());
    adapters.push_back(std::move(a));
  }

  AsyncConfig acfg;
  acfg.seed = plan_.trial_seed;
  acfg.tick_interval = kRoundPeriod;
  EventSimulator sim(acfg, std::move(adapters));
  sim.set_delay_policy(
      [this](ProcessId, ProcessId, Time) { return pending_delay_; });
  for (const auto& c : plan_.corruptions) {
    sim.corrupt_state(c.process, corruption_value(c));
  }
  for (ProcessId p = 0; p < n_; ++p) {
    const FaultPlan fp = plan_.fault_plan_for(p);
    crash_round_[p] = fp.crash_at;
    if (fp.crash_at) {
      sim.schedule_crash(p, *fp.crash_at * kRoundPeriod);
    }
  }

  h2_.n = n_;
  for (Round r = 1; r <= final_; ++r) {
    begin_round_record(r);
    causality_.begin_round();
    sim.run_until(r * kRoundPeriod + kRoundPeriod - 1);
    finalize_round(r, sim);
  }
  // One more tick per survivor closes the final round's deliveries without
  // opening a new round; stop short of the next delivery instant so
  // lost-in-flight events stay undispatched.
  sim.run_until((final_ + 1) * kRoundPeriod + n_ - 1);
  flush_lost();
  finish(sim);
}

}  // namespace

LockstepResult run_lockstep_trial(const TrialPlan& plan,
                                  const LockstepOptions& options) {
  LockstepResult result;
  LockstepDriver driver(plan, options, &result);
  driver.run();
  return result;
}

}  // namespace ftss
