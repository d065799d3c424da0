// Basic identifiers and message envelope for the synchronous model (§2.1).
#pragma once

#include <cstdint>

#include "util/value.h"

namespace ftss {

// Processes are numbered 0..n-1.
using ProcessId = int;

// Round numbers.  *Actual* rounds (the external observer's count) start at 1
// and are always positive; *round variables* c_p held by processes are
// unbounded and, after a systemic failure, may hold any value at all.
using Round = std::int64_t;

// A delivery: one message a process receives in a round.  In §2's
// lock-step model a process receives the messages sent to it, so the
// receiver is implicit and a delivery names only its sender.  The sync
// simulator's broadcast fast path hands one such inbox to every process.
struct Message {
  ProcessId sender = -1;
  Value payload;
};

// One send: a message with its destination, as the send side, the fate
// pass and the in-flight queue carry it until it is delivered.
struct Outgoing {
  ProcessId sender = -1;
  ProcessId dest = -1;
  Value payload;
};

}  // namespace ftss
