// The trace tape and its two renderings.
//
//  * TraceTape — the sink: keeps the run's events in arrival order,
//    optionally only the newest N, so a long run traces at O(N) memory.
//  * trace_to_jsonl — one JSON object per event per line (JSONL),
//    parseable back with Value::parse for round-trip tests.
//  * trace_to_chrome — the Chrome trace_event JSON format (load in
//    chrome://tracing or Perfetto): per-round "X" duration spans on a
//    dedicated rounds track, per-process instant events, and "s"/"f" flow
//    arrows for every delivered message — the happened-before edges of
//    Definition 2.3 drawn as arrows.
//
// Both renderings are deterministic: identical event streams serialize to
// identical bytes (no wall-clock timestamps; the virtual time axis is the
// round number).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "sim/trace.h"

namespace ftss {

// One event as a structured Value: {"ev": kind, "r": round, "p": process,
// "peer": peer, "aux": aux, "cause": detail, "flow": flow_id, "data": data}
// with absent/default fields omitted.  Value::parse inverts the JSONL line.
Value trace_event_to_value(const TraceEvent& e);

class TraceTape : public TraceSink {
 public:
  // capacity 0 keeps every event; otherwise the tape keeps the newest
  // `capacity` events.
  explicit TraceTape(std::size_t capacity = 0) : capacity_(capacity) {}

  void event(const TraceEvent& e) override;

  const std::deque<TraceEvent>& events() const { return events_; }

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
};

// One compact JSON object per line, for the newest `newest` events on the
// tape (0 = all of them).
std::string trace_to_jsonl(const TraceTape& tape, std::size_t newest = 0);

// The complete {"traceEvents": [...]} document, one virtual millisecond per
// round.
std::string trace_to_chrome(const TraceTape& tape);

// Chrome trace_event building blocks shared by both Chrome writers:
// trace_to_chrome and flight_dump_to_chrome (obs/flight.h).
//
// One trace_event record; writers add "dur", "id", "s", "args" as needed.
// All fields are integers or strings, so Value renders it with correct
// escaping (and sorted keys, so field order never varies).
Value chrome_record(std::string name, const char* ph, std::int64_t ts,
                    std::int64_t tid, std::int64_t pid = 0);
// The rendered {"traceEvents": [...], "displayTimeUnit": ...} document,
// without a trailing newline.
std::string chrome_document(Value::Array events, const char* time_unit);

}  // namespace ftss
