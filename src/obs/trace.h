// Concrete TraceSink backends and trace serialization.
//
//  * JsonlTraceSink — ring-buffered structured sink: events are kept as
//    Values (one JSON object per event) in a bounded ring so a long run
//    traces at O(capacity) memory; write() emits one JSON line per event
//    (JSONL), parseable back with Value::parse for round-trip tests.
//  * ChromeTraceSink — accumulates events and writes the Chrome
//    trace_event JSON format (load in chrome://tracing or Perfetto):
//    per-round "X" duration spans on a dedicated rounds track, per-process
//    instant events, and "s"/"f" flow arrows for every delivered message —
//    the happened-before edges of Definition 2.3 drawn as arrows.
//
// Both sinks are deterministic: identical event streams serialize to
// identical bytes (no wall-clock timestamps; the virtual time axis is the
// round number).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "sim/trace.h"

namespace ftss {

// One event as a structured Value: {"ev": kind, "r": round, "p": process,
// "peer": peer, "aux": aux, "cause": detail, "flow": flow_id, "data": data}
// with absent/default fields omitted.  Value::parse inverts the JSONL line.
Value trace_event_to_value(const TraceEvent& e);

class JsonlTraceSink : public TraceSink {
 public:
  // capacity 0 = unbounded; otherwise the ring keeps the newest `capacity`
  // events and counts what it had to evict.
  explicit JsonlTraceSink(std::size_t capacity = 0) : capacity_(capacity) {}

  void event(const TraceEvent& e) override;

  const std::deque<Value>& events() const { return events_; }
  std::size_t dropped_events() const { return dropped_; }

  // One compact JSON object per line.
  void write(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::deque<Value> events_;
};

// Chrome trace_event building blocks shared by every Chrome writer: this
// sink, export_chrome_flows (obs/causal_export.h) and flight_dump_to_chrome
// (obs/flight.h).
//
// One trace_event record; writers add "dur", "id", "s", "args" as needed.
// All fields are integers or strings, so Value renders it with correct
// escaping (and sorted keys, so field order never varies).
Value chrome_record(std::string name, const char* ph, std::int64_t ts,
                    std::int64_t tid, std::int64_t pid = 0);
// The rendered {"traceEvents": [...], "displayTimeUnit": ...} document,
// without a trailing newline.
std::string chrome_document(Value::Array events, const char* time_unit);

// Virtual microseconds per simulated round: the time axis of the two
// virtual-time writers (this sink and export_chrome_flows).
inline constexpr std::int64_t kChromeUsPerRound = 1000;

class ChromeTraceSink : public TraceSink {
 public:
  void event(const TraceEvent& e) override;

  // Complete {"traceEvents": [...]} document.
  void write(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::deque<TraceEvent> events_;
};

}  // namespace ftss
