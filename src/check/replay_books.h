// The external observer both differential replay legs share.
//
// The event-simulator lock-step leg (conform/lockstep.h) and the socket
// transport leg (net/transport.h) each re-execute a plan's sync run through
// a second engine.  Both replay the sync leg's resolved fate schedule
// (sim/fate_schedule.h), and both rebuild the same observer record from
// what their engine actually did: the §2.1 history, with Definition 2.3's
// coterie over the faults that actually manifested, which the history
// differ (conform/diff.h) then holds against the sync leg's.  ReplayBooks
// owns that record and the cross-checks the histories cannot express, so
// each leg keeps only its transport mechanics and the two cannot drift on
// what a fate, a round close or a final check means.
//
// A leg drives the books in this order:
//   run_sync_leg                         once, before its own engine starts;
//   for r = 1 .. plan.rounds:
//     begin_round(r)
//     observe(r, p, ...)                 each live process's start of round
//     send(r, sender, dest, payload)     each message, in emission order
//     claim(r, dest, id) + resolve(...)  each delivery the leg observes
//     end_round(r, crashed)
//   close(crashed)                       once the last round is over
//   check_survivor(p, ...)               each process the leg kept alive
//   finish()                             hands back the rebuilt history
//
// Every report, the books' own and the leg's (report()), lands in one list
// capped at kMaxReports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/plan.h"
#include "sim/causality.h"
#include "sim/fate_schedule.h"
#include "sim/history.h"
#include "sim/simulator.h"
#include "util/process_set.h"
#include "util/value.h"

namespace ftss {

// One disagreement between two executions of a plan.
struct Divergence {
  // Stable kind identifier.  The history differ's: "length", "alive",
  // "halted", "clock", "state", "sends", "suspects", "faulty", "coterie".
  // ReplayBooks': "schedule" (replay integrity), "crashed" (crash-vector
  // agreement), "final-state" / "final-clock" (survivors after the last
  // round), "metrics" (derived metrics snapshots).  The transport leg's:
  // "io" (a channel failed mid-run).
  std::string kind;
  Round round = 0;  // 0 = whole-run property
  std::string detail;
};

class ReplayBooks {
 public:
  static constexpr int kMaxReports = 16;

  // A message the leg has handed to its network: its resolved fate plus
  // what the observer record needs once it resolves.
  struct Pending {
    ProcessId sender = -1;
    ProcessId dest = -1;
    Round sent_round = 0;
    Round delivery_round = 0;
    Fate fate = Fate::kDelivered;
    Value payload;
    ProcessSet influence;  // sender's happened-before snapshot at send time
    bool resolved = false;
  };

  // `leg` names the replaying engine in report details ("event",
  // "transport").
  ReplayBooks(const TrialPlan& plan, std::string leg);

  // Runs the plan on the SyncSimulator with full states recorded and reads
  // every message's fate off its history.  False, with *error set, when
  // the plan has no rounds or processes, cannot be built, or its schedule
  // is ambiguous.
  bool run_sync_leg(std::string* error);
  const SyncSimulator& sync() const { return *sync_; }
  const History& sync_history() const { return sync_->history(); }

  // The plan's crash schedule: whether p has crashed by round r, and the
  // whole vector at round r.
  bool crashed_by(ProcessId p, Round r) const;
  std::vector<bool> crashed_by(Round r) const;

  // Opens round r's record; a planned crash manifests its fault here, as in
  // the sync observer (omissions manifest only when they drop something).
  void begin_round(Round r);
  // p's start-of-round facts; p is alive in round r.
  void observe(Round r, ProcessId p, bool halted, Value state,
               std::optional<Round> clock, std::vector<ProcessId> suspects);
  // Consumes the next scheduled fate of a round-r send.  A send-omitted
  // message is recorded at once; any other gets an id the leg quotes back
  // in claim().  No id for those, nor for a send the schedule does not hold
  // (reported).
  std::optional<std::int64_t> send(Round r, ProcessId sender, ProcessId dest,
                                   Value payload);
  // Every message handed out so far, indexed by id.  A leg may move a
  // pending delivery round or swap its payload (the transport hub's
  // corruption hooks do) before the message resolves.
  std::span<Pending> pendings() { return pendings_; }
  // Marks message `id` resolved as it reaches `dest` in round r, and returns
  // it when that matches the schedule.  An unknown id, a second claim of one
  // id and a claim off schedule are each reported once, as "schedule", and
  // return null.
  Pending* claim(Round r, ProcessId dest, std::int64_t id);
  // Writes the send record of a message the leg resolved with `fate` in
  // round r, carrying `payload` (what actually crossed the leg's network).
  // A delivery updates the happened-before relation, an omission manifests
  // its faulty party.  Records past the final round (lost in flight) go
  // into the final round's.
  void resolve(Pending& pend, Round r, Fate fate, Value payload);
  // Closes round r: a message due this round that the leg never resolved
  // was withheld, which is right exactly when the schedule says its
  // destination crashed and the leg's `crashed` vector agrees.  Then the
  // round's faulty set and coterie.
  void end_round(Round r, const std::vector<bool>& crashed);

  // Closes the run: messages still in flight become Fate::kLostInFlight
  // records, then sends the schedule holds but the leg never attempted, and
  // the leg's final crash vector against the sync leg's.
  void close(const std::vector<bool>& crashed);
  // p's state, halted flag and clock after the final round, against the
  // sync leg's (skipped when the sync leg crashed p).
  void check_survivor(ProcessId p, const Value& state, bool halted,
                      std::optional<Round> clock);
  // Derived-metrics agreement, then hands over the rebuilt history.
  History finish();

  // Files a report; past kMaxReports they are dropped.
  void report(const char* kind, Round r, std::string detail);
  std::vector<Divergence>& reports() { return reports_; }

 private:
  RoundRecord& rec_of(Round r) { return history_.rounds.at(r - 1); }

  const TrialPlan plan_;
  const std::string leg_;
  const int n_;
  const Round final_;

  std::unique_ptr<SyncSimulator> sync_;
  std::map<FateScheduleKey, FateQueue> fates_;
  std::vector<Pending> pendings_;
  History history_;
  CausalityTracker causality_;
  std::vector<bool> fault_manifested_;
  std::vector<std::optional<Round>> crash_round_;
  bool any_suspects_ = false;
  std::vector<Divergence> reports_;
};

}  // namespace ftss
