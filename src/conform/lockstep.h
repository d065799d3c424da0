// Cross-simulator differential leg: the same TrialPlan executed by the
// round-based SyncSimulator and by the discrete-event EventSimulator driven
// in lock-step round mode.
//
// The sync leg runs first and *resolves* the plan's randomness: every
// message's fate (delivered / dropped, and by whom) and delivery round is
// read off its recorded history — which the explorer's universal audits
// independently hold to the plan.  The event leg then re-executes the same
// resolved schedule through entirely different machinery: AsyncProcess
// adapters wrapping fresh SyncProcess instances, one tick per process per
// round (time r*kRoundPeriod + p), payloads crossing the event queue as
// wrapped Values, crashes enforced by the event simulator's own time-based
// gating, deliveries landing as timed events.  The external observer is the
// replay books both legs share (check/replay_books.h): the driver feeds them
// what the event leg actually did — liveness from ticks that fired,
// clocks/states from adapter snapshots, send fates from deliveries observed,
// payloads as they came off the event queue — and the books rebuild the
// History and cross-check final states, crashes and metrics.  The driver
// itself keeps only the adapters, the tick stagger and the checks only the
// event queue allows: sender attribution, the delivery instant, and no
// dispatch to a crashed destination or of a message lost in flight.
//
// The leg returns what it observed and judges nothing: the two histories
// and the books' notes.  replay_findings (conform/metamorphic.h) diffs the
// histories and gives the verdict, for check_lockstep and ftss_conform
// --lockstep alike, as it does for the transport leg.
//
// What this checks: protocol transition equivalence under a second engine,
// the event simulator's crash/dispatch semantics against the sync model,
// Value copy-on-write behavior across the event queue, and both engines'
// message accounting (including lost-in-flight closure).  What it does not
// re-randomize: fault coin flips and jitter draws, which are taken from the
// sync leg's audited history so the two executions are comparable at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/plan.h"
#include "check/replay_books.h"  // Divergence
#include "sim/history.h"

namespace ftss {

// Virtual event-simulator time layout: round r occupies
// [r*kRoundPeriod, (r+1)*kRoundPeriod); process p ticks at r*kRoundPeriod+p
// and all of round r's deliveries land at r*kRoundPeriod + kDeliverOffset,
// strictly after every tick of the round.
inline constexpr std::int64_t kRoundPeriod = 64;
inline constexpr std::int64_t kDeliverOffset = 48;

struct LockstepOptions {
  // TEST HOOK (mutation testing): suppress the k-th accepted delivery in
  // the event leg, 0-based across the run; -1 = none.  Proves the
  // differential oracle can fail when an engine actually misbehaves.
  int drop_delivery_index = -1;
};

struct LockstepResult {
  // False when the plan cannot be executed in lock-step mode (unknown
  // protocol, n too large for the tick stagger, or an ambiguous schedule:
  // one process sending the same destination twice in one round with
  // different fates, which the fate-replay keying cannot attribute).
  bool supported = true;
  std::string unsupported_reason;

  History sync_history;
  History event_history;
  // The replay books' cross-checks; Divergence lists their kinds.
  std::vector<Divergence> notes;
};

LockstepResult run_lockstep_trial(const TrialPlan& plan,
                                  const LockstepOptions& options = {});

}  // namespace ftss
