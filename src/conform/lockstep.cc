#include "conform/lockstep.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "async/event_sim.h"
#include "check/replay_books.h"
#include "check/trial_build.h"

namespace ftss {

namespace {

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
        books_(plan, "event") {}

  void run();

  // Adapter callbacks. -------------------------------------------------------
  void on_round_tick(ProcessId p, AsyncContext& ctx);
  void on_wire_message(ProcessId dest, ProcessId from, const Value& wire,
                       AsyncContext& ctx);

 private:
  void unsupported(std::string reason) {
    result_->supported = false;
    result_->unsupported_reason = std::move(reason);
  }

  std::vector<bool> crashed(const EventSimulator& sim) const {
    std::vector<bool> out(n_);
    for (ProcessId p = 0; p < n_; ++p) out[p] = sim.crashed(p);
    return out;
  }

  void handle_send(Round r, Outgoing&& m, AsyncContext& ctx);
  void finish(const EventSimulator& sim);

  const TrialPlan& plan_;
  const LockstepOptions options_;
  LockstepResult* result_;
  const int n_;
  const Round final_;

  ReplayBooks books_;
  std::vector<LockstepAdapter*> adapters_;
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
  std::vector<ProcessId> suspects;
  if (const ProcessSet* s = proc.suspect_set()) {
    suspects.assign(s->begin(), s->end());
  }
  books_.observe(r, p, proc.halted(), proc.snapshot_state(),
                 proc.round_counter(), std::move(suspects));
  if (!proc.halted()) {
    std::vector<Outgoing> outgoing;
    CollectOutbox out(p, n_, &outgoing);
    proc.begin_round(out);
    for (Outgoing& m : outgoing) handle_send(r, std::move(m), ctx);
  }
}

void LockstepDriver::handle_send(Round r, Outgoing&& m, AsyncContext& ctx) {
  const std::optional<std::int64_t> id =
      books_.send(r, m.sender, m.dest, m.payload);
  if (!id) return;  // send-omitted (already recorded) or unscheduled

  // Side-channel to the delay policy: land exactly at the resolved round's
  // delivery instant.  Lost-in-flight fates resolve past the final round, so
  // their events are scheduled but never dispatched.
  pending_delay_ = books_.pendings()[*id].delivery_round * kRoundPeriod +
                   kDeliverOffset - ctx.now();
  // The wire message is the [id, body] pair: the books hold the rest.
  ctx.send(m.dest, Value::tuple(Value(*id), std::move(m.payload)));
}

void LockstepDriver::on_wire_message(ProcessId dest, ProcessId from,
                                     const Value& wire, AsyncContext& ctx) {
  const Time now = ctx.now();
  const Round r = now / kRoundPeriod;
  // Anything but an [id, body] pair carries no id, which claim reports.
  const bool pair = wire.is_array() && wire.size() == 2;
  const std::int64_t id = pair ? wire.as_array()[0].int_or(-1) : -1;
  ReplayBooks::Pending* pend = books_.claim(r, dest, id);
  if (pend == nullptr) return;
  if (pend->sender != from || now % kRoundPeriod != kDeliverOffset) {
    std::ostringstream os;
    os << "delivery off schedule: expected p" << pend->sender << "->p"
       << pend->dest << " at time " << r * kRoundPeriod + kDeliverOffset
       << ", got p" << from << "->p" << dest << " at time " << now;
    books_.report("schedule", r, os.str());
    return;
  }
  if (pend->fate == Fate::kDestCrashed || pend->fate == Fate::kLostInFlight) {
    // The event simulator should have withheld this dispatch on its own
    // (crash gating / run horizon); reaching the adapter is a divergence.
    std::ostringstream os;
    os << "p" << from << "->p" << dest << " dispatched despite "
       << (pend->fate == Fate::kDestCrashed ? "a crashed destination"
                                            : "being lost in flight");
    books_.report("schedule", r, os.str());
    return;
  }
  const Value& body = wire.as_array()[1];
  if (pend->fate == Fate::kDelivered) {
    if (delivered_seen_++ == options_.drop_delivery_index) return;  // TEST HOOK
    adapters_.at(dest)->buffer().push_back(Message{from, body});
  }
  // The record carries the payload that came off the event queue, so the
  // differ checks payloads across it.
  books_.resolve(*pend, r, pend->fate, body);
}

void LockstepDriver::finish(const EventSimulator& sim) {
  books_.close(crashed(sim));
  for (ProcessId p = 0; p < n_; ++p) {
    if (sim.crashed(p)) continue;
    const SyncProcess& ep = adapters_.at(p)->proc();
    books_.check_survivor(p, ep.snapshot_state(), ep.halted(),
                          ep.round_counter());
  }
  result_->event_history = books_.finish();
  result_->notes = std::move(books_.reports());
}

void LockstepDriver::run() {
  // Every tick must precede every delivery within a round window, and each
  // process needs a distinct tick offset.
  if (n_ > static_cast<int>(kDeliverOffset)) {
    unsupported("n out of range for the lock-step tick stagger");
    return;
  }
  std::string error;
  if (!books_.run_sync_leg(&error)) {
    unsupported(error);
    return;
  }
  result_->sync_history = books_.sync_history();

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
    if (const auto at = plan_.fault_plan_for(p).crash_at) {
      sim.schedule_crash(p, *at * kRoundPeriod);
    }
  }

  for (Round r = 1; r <= final_; ++r) {
    books_.begin_round(r);
    sim.run_until(r * kRoundPeriod + kRoundPeriod - 1);
    books_.end_round(r, crashed(sim));
  }
  // One more tick per survivor closes the final round's deliveries without
  // opening a new round; stop short of the next delivery instant so
  // lost-in-flight events stay undispatched.
  sim.run_until((final_ + 1) * kRoundPeriod + n_ - 1);
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
