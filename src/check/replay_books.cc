#include "check/replay_books.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "check/trial_build.h"
#include "obs/metrics.h"

namespace ftss {

ReplayBooks::ReplayBooks(const TrialPlan& plan, std::string leg)
    : plan_(plan),
      leg_(std::move(leg)),
      n_(std::max(plan.n, 0)),
      final_(plan.rounds),
      causality_(n_),
      fault_manifested_(n_, false),
      crash_round_(n_) {
  history_.n = n_;
  for (ProcessId p = 0; p < n_; ++p) {
    crash_round_[p] = plan.fault_plan_for(p).crash_at;
  }
}

bool ReplayBooks::run_sync_leg(std::string* error) {
  if (final_ < 1) {
    *error = "plan has no rounds";
    return false;
  }
  if (n_ < 1) {
    *error = "plan has no processes";
    return false;
  }
  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan_, error);
  if (procs.empty()) {
    *error = "build: " + *error;
    return false;
  }
  sync_ = std::make_unique<SyncSimulator>(trial_sync_config(plan_),
                                          std::move(procs));
  configure_trial(*sync_, plan_);
  sync_->run_rounds(static_cast<int>(final_));
  FateSchedule schedule = extract_fate_schedule(sync_->history());
  if (!schedule.ok) {
    *error = "sync " + schedule.error;
    return false;
  }
  fates_ = std::move(schedule.fates);
  // The sync observer records suspect sets exactly when some process
  // exposes one; the replay's processes are the same types.
  any_suspects_ = !sync_->history().rounds.front().suspects.empty();
  return true;
}

bool ReplayBooks::crashed_by(ProcessId p, Round r) const {
  return crash_round_[p] && r >= *crash_round_[p];
}

std::vector<bool> ReplayBooks::crashed_by(Round r) const {
  std::vector<bool> crashed(n_);
  for (ProcessId p = 0; p < n_; ++p) crashed[p] = crashed_by(p, r);
  return crashed;
}

void ReplayBooks::begin_round(Round r) {
  RoundRecord rec;
  rec.round = r;
  rec.alive.assign(n_, false);  // set by each observe()
  rec.halted.resize(n_);
  rec.state.resize(n_);
  rec.clock.resize(n_);
  if (any_suspects_) rec.suspects.resize(n_);
  history_.rounds.push_back(std::move(rec));
  for (ProcessId p = 0; p < n_; ++p) {
    if (crashed_by(p, r)) fault_manifested_[p] = true;
  }
  causality_.begin_round();
}

void ReplayBooks::observe(Round r, ProcessId p, bool halted, Value state,
                          std::optional<Round> clock,
                          std::vector<ProcessId> suspects) {
  RoundRecord& rec = rec_of(r);
  rec.alive[p] = true;
  rec.halted[p] = halted;
  rec.state[p] = std::move(state);
  rec.clock[p] = clock;
  if (any_suspects_) rec.suspects[p] = std::move(suspects);
}

std::optional<std::int64_t> ReplayBooks::send(Round r, ProcessId sender,
                                              ProcessId dest, Value payload) {
  const auto it = fates_.find(FateScheduleKey{r, sender, dest});
  if (it == fates_.end() || it->second.next >= it->second.fates.size()) {
    std::ostringstream os;
    os << leg_ << " leg sent an unscheduled message p" << sender << "->p"
       << dest;
    report("schedule", r, os.str());
    return std::nullopt;
  }
  const ResolvedFate fate = it->second.fates[it->second.next++];
  Pending pend;
  pend.sender = sender;
  pend.dest = dest;
  pend.sent_round = r;
  pend.delivery_round = fate.delivery_round;
  pend.fate = fate.fate;
  if (fate.fate == Fate::kDroppedBySender) {
    // Never enters the network; the observer records the drop at send time.
    resolve(pend, r, Fate::kDroppedBySender, std::move(payload));
    return std::nullopt;
  }
  pend.payload = std::move(payload);
  pend.influence = causality_.send_snapshot(sender);
  pendings_.push_back(std::move(pend));
  return static_cast<std::int64_t>(pendings_.size()) - 1;
}

ReplayBooks::Pending* ReplayBooks::claim(Round r, ProcessId dest,
                                         std::int64_t id) {
  if (id < 0 || id >= static_cast<std::int64_t>(pendings_.size())) {
    report("schedule", r,
           "delivery of a message the " + leg_ + " leg never sent");
    return nullptr;
  }
  Pending& pend = pendings_[static_cast<std::size_t>(id)];
  if (pend.resolved) {
    report("schedule", r, "duplicate delivery of one message");
    return nullptr;
  }
  // Resolved even when off schedule, so the message is reported once and
  // end_round does not also call it vanished.
  pend.resolved = true;
  if (pend.dest != dest || pend.delivery_round != r) {
    std::ostringstream os;
    os << "delivery off schedule: p" << pend.sender << "->p" << pend.dest
       << " due round " << pend.delivery_round << ", reached p" << dest
       << " in round " << r;
    report("schedule", r, os.str());
    return nullptr;
  }
  return &pend;
}

void ReplayBooks::resolve(Pending& pend, Round r, Fate fate, Value payload) {
  pend.resolved = true;
  SendRecord sr;
  sr.sender = pend.sender;
  sr.dest = pend.dest;
  sr.sent_round = pend.sent_round;
  sr.delivery_round = r;
  sr.payload = std::move(payload);
  sr.fate = fate;
  if (fate == Fate::kDelivered) {
    causality_.deliver_snapshot(pend.influence, pend.dest);
  } else if (fate == Fate::kDroppedBySender) {
    fault_manifested_[pend.sender] = true;
  } else if (fate == Fate::kDroppedByReceiver) {
    fault_manifested_[pend.dest] = true;
  }
  rec_of(std::min(r, final_)).sends.push_back(std::move(sr));
}

void ReplayBooks::end_round(Round r, const std::vector<bool>& crashed) {
  for (Pending& pend : pendings_) {
    if (pend.resolved || pend.delivery_round != r) continue;
    if (pend.fate != Fate::kDestCrashed || !crashed[pend.dest]) {
      std::ostringstream os;
      os << "p" << pend.sender << "->p" << pend.dest << " vanished in the "
         << leg_ << " leg (resolved fate " << fate_name(pend.fate)
         << ", dest crashed=" << crashed[pend.dest] << ")";
      report("schedule", r, os.str());
    }
    resolve(pend, r, Fate::kDestCrashed, pend.payload);
  }

  RoundRecord& rec = rec_of(r);
  rec.faulty_by_now = fault_manifested_;
  ProcessSet correct(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (!fault_manifested_[p]) correct.insert(p);
  }
  rec.coterie = causality_.coterie(correct).to_bools();
}

void ReplayBooks::close(const std::vector<bool>& crashed) {
  // Mirror of the sync observer's books-closing: sends still in flight when
  // the run stops become Fate::kLostInFlight records in the final round, in
  // delivery-round order.
  std::vector<Pending*> lost;
  for (Pending& pend : pendings_) {
    if (!pend.resolved && pend.delivery_round > final_) lost.push_back(&pend);
  }
  std::stable_sort(lost.begin(), lost.end(),
                   [](const Pending* a, const Pending* b) {
                     return a->delivery_round < b->delivery_round;
                   });
  for (Pending* pend : lost) {
    resolve(*pend, pend->delivery_round, Fate::kLostInFlight, pend->payload);
  }

  for (const auto& [key, fq] : fates_) {
    if (fq.next < fq.fates.size()) {
      std::ostringstream os;
      os << "p" << std::get<1>(key) << "->p" << std::get<2>(key) << ": "
         << (fq.fates.size() - fq.next)
         << " sync-scheduled send(s) never attempted by the " << leg_
         << " leg";
      report("schedule", std::get<0>(key), os.str());
    }
  }

  for (ProcessId p = 0; p < n_; ++p) {
    const bool sc = sync_->crashed(p);
    if (sc != crashed[p]) {
      report("crashed", final_,
             "p" + std::to_string(p) + ": sync " + (sc ? "crashed" : "alive") +
                 " vs " + leg_ + " " + (crashed[p] ? "crashed" : "alive"));
    }
  }
}

void ReplayBooks::check_survivor(ProcessId p, const Value& state, bool halted,
                                 std::optional<Round> clock) {
  // A crashed process's state is unspecified past its crash.
  if (sync_->crashed(p)) return;
  const SyncProcess& sp = sync_->process(p);
  if (!(sp.snapshot_state() == state) || sp.halted() != halted) {
    report("final-state", final_,
           "p" + std::to_string(p) + ": " + sp.snapshot_state().to_string() +
               " vs " + state.to_string());
  }
  if (sp.round_counter() != clock) {
    report("final-clock", final_, "p" + std::to_string(p));
  }
}

History ReplayBooks::finish() {
  MetricsRegistry ms, mr;
  record_history_metrics(sync_->history(), ms);
  record_history_metrics(history_, mr);
  if (ms.snapshot().fingerprint() != mr.snapshot().fingerprint()) {
    report("metrics", final_, "derived metrics snapshots differ");
  }
  return std::move(history_);
}

void ReplayBooks::report(const char* kind, Round r, std::string detail) {
  if (static_cast<int>(reports_.size()) < kMaxReports) {
    reports_.push_back(Divergence{kind, r, std::move(detail)});
  }
}

}  // namespace ftss
