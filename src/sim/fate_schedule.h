// Canonical send-record fate codes, and fate-schedule extraction: resolving
// a recorded history into per-(sent_round, sender, dest) queues of message
// fates that a second execution leg can replay.
//
// Both differential legs — the event-simulator lock-step driver
// (conform/lockstep.cc) and the socket transport leg (net/transport.cc) —
// replay the sync simulator's run through the shared replay books
// (check/replay_books.h), which read every message's fate (delivered /
// dropped and by whom, plus the delivery round) off its audited history.
// The extraction and the code<->name mapping live here, in sim/, so the
// books and the history differ agree byte-for-byte on what a fate *is*.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/history.h"

namespace ftss {

// Canonical fate codes, in the differ's sort order.  Appending here is safe;
// reordering would silently change history fingerprints.
enum : int {
  kFateDelivered = 0,
  kFateDroppedBySender = 1,
  kFateDroppedByReceiver = 2,
  kFateDestCrashed = 3,
  kFateLostInFlight = 4,
  kFateFrameCorrupted = 5,
  kFateUnresolved = 6,  // no fate flag set at all (a reportable oddity)
};

int fate_code(const SendRecord& s);
const char* fate_name(int code);

struct ResolvedFate {
  int code = kFateDelivered;
  Round delivery_round = 0;

  friend bool operator==(const ResolvedFate& a, const ResolvedFate& b) {
    return a.code == b.code && a.delivery_round == b.delivery_round;
  }
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
