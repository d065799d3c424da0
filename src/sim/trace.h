// Structured per-round event tracing emitted by the simulator.
//
// The simulator is the external observer; a TraceSink is the observer's
// tape.  Every event carries the actual round it occurred in plus enough
// structure to reconstruct the run: message fates with their causes, clock
// adoptions, fault manifestations, coterie changes (the paper's
// de-stabilizing events) and Π⁺ suspect-set deltas.  The interface lives in
// sim/ so SyncSimulator can emit without depending on the obs/ backends:
// the trace tape with its JSONL and Chrome trace_event renderings
// (obs/trace.h) and the flight recorder's sink (obs/flight.h).  `detail`
// points at a static string, so a sink may keep events as they are.
//
// Cost discipline: the simulator holds a nullable TraceSink* and guards
// every emission with a null check, so tracing-off runs pay one predictable
// branch per site (verified by bench_overhead's hot-loop benchmark).
#pragma once

#include "sim/types.h"

namespace ftss {

enum class TraceEventKind {
  kRoundBegin,     // round = r
  kRoundEnd,       // round = r
  kSend,           // process = sender, peer = dest, round = send round
  kDeliver,        // process = sender, peer = dest, round = delivery round,
                   // aux = send round (aux < round means jitter delay)
  kDrop,           // like kDeliver; detail = cause
  kClockAdopt,     // process adopted round variable aux at end of round
  kFaultManifest,  // process's fault plan first deviated; detail = kind
  kCoterieChange,  // end-of-round coterie differs from previous round's;
                   // data = array of member ids (Definition 2.3)
  kSuspectDelta,   // process's Π⁺ suspect set changed; data = {added, removed}
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRoundBegin;
  Round round = 0;          // actual (observer) round, 1-based
  ProcessId process = -1;   // primary actor, -1 for system-wide events
  ProcessId peer = -1;      // message destination
  Round aux = 0;            // send round / adopted clock value
  const char* detail = "";  // static cause string ("send-omission", ...)
  std::int64_t flow_id = -1;  // links kSend to its kDeliver/kDrop
  Value data;               // structured extras (coterie members, deltas)
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& e) = 0;
};

const char* to_string(TraceEventKind kind);

}  // namespace ftss
