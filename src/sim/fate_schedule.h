// Fate-schedule extraction: resolving a recorded history into
// per-(sent_round, sender, dest) queues of message fates that a second
// execution leg can replay.
//
// Both differential legs — the event-simulator lock-step driver
// (conform/lockstep.cc) and the socket transport leg (net/transport.cc) —
// replay the sync simulator's run through the shared replay books
// (check/replay_books.h), which read every message's fate (delivered /
// dropped and by whom, plus the delivery round) off its audited history.
// The extraction lives here, in sim/, beside the Fate vocabulary
// (sim/history.h) the books and the history differ share.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/history.h"

namespace ftss {

struct ResolvedFate {
  Fate fate = Fate::kDelivered;
  Round delivery_round = 0;

  friend bool operator==(const ResolvedFate&, const ResolvedFate&) = default;
};

// Fates for one (sent_round, sender, dest) key, consumed FIFO.  Send order
// within a round is identical across legs (process-id order, then the
// process's own deterministic emission order), so FIFO attribution is exact
// whenever all fates under one key agree — extraction rejects the history
// as ambiguous when they do not.
struct FateQueue {
  std::vector<ResolvedFate> fates;
  std::size_t next = 0;
};

using FateScheduleKey = std::tuple<Round, ProcessId, ProcessId>;

struct FateSchedule {
  bool ok = true;
  std::string error;  // set when !ok: unresolved send or ambiguous key
  std::map<FateScheduleKey, FateQueue> fates;
};

FateSchedule extract_fate_schedule(const History& h);

}  // namespace ftss
