#include "obs/trace.h"

#include <algorithm>
#include <set>

namespace ftss {

Value trace_event_to_value(const TraceEvent& e) {
  Value v;
  v["ev"] = Value(to_string(e.kind));
  v["r"] = Value(e.round);
  if (e.process >= 0) v["p"] = Value(e.process);
  if (e.peer >= 0) v["peer"] = Value(e.peer);
  v["aux"] = Value(e.aux);
  if (e.detail[0] != '\0') v["cause"] = Value(e.detail);
  if (e.flow_id >= 0) v["flow"] = Value(e.flow_id);
  if (!e.data.is_null()) v["data"] = e.data;
  return v;
}

void TraceTape::event(const TraceEvent& e) {
  if (capacity_ > 0 && events_.size() >= capacity_) events_.pop_front();
  events_.push_back(e);
}

std::string trace_to_jsonl(const TraceTape& tape, std::size_t newest) {
  const std::deque<TraceEvent>& events = tape.events();
  const std::size_t skip =
      newest > 0 && newest < events.size() ? events.size() - newest : 0;
  std::string out;
  for (auto it = events.begin() + skip; it != events.end(); ++it) {
    out += trace_event_to_value(*it).to_string();
    out += '\n';
  }
  return out;
}

Value chrome_record(std::string name, const char* ph, std::int64_t ts,
                    std::int64_t tid, std::int64_t pid) {
  Value v;
  v["name"] = Value(std::move(name));
  v["ph"] = Value(ph);
  v["pid"] = Value(pid);
  v["tid"] = Value(tid);
  v["ts"] = Value(ts);
  return v;
}

std::string chrome_document(Value::Array events, const char* time_unit) {
  Value doc;
  doc["traceEvents"] = Value(std::move(events));
  doc["displayTimeUnit"] = Value(time_unit);
  return doc.to_string();
}

namespace {

constexpr std::int64_t kRoundsTrack = 1000000;  // tid of the rounds lane

}  // namespace

std::string trace_to_chrome(const TraceTape& tape) {
  constexpr std::int64_t us = 1000;  // virtual microseconds per round
  const std::deque<TraceEvent>& events = tape.events();
  Value::Array out;

  // Pass 1: the processes the trace mentions, and which flows complete.  A
  // flow arrow needs both endpoints; dropped or still-in-flight messages get
  // no "s" record (the drop instant marks them instead).
  ProcessId max_p = -1;
  std::set<std::int64_t> delivered_flows;
  for (const TraceEvent& e : events) {
    max_p = std::max({max_p, e.process, e.peer});
    if (e.kind == TraceEventKind::kDeliver && e.flow_id >= 0) {
      delivered_flows.insert(e.flow_id);
    }
  }

  for (ProcessId p = 0; p <= max_p; ++p) {
    Value meta = chrome_record("thread_name", "M", 0, p);
    meta["args"]["name"] = Value("process " + std::to_string(p));
    out.push_back(std::move(meta));
  }
  {
    Value meta = chrome_record("thread_name", "M", 0, kRoundsTrack);
    meta["args"]["name"] = Value("rounds");
    out.push_back(std::move(meta));
  }

  // Pass 2: spans.  Every (round, process) gets an "X" slice so flow arrows
  // have slices to bind to; the rounds lane gets one slice per round.
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundBegin) continue;
    const std::int64_t ts = e.round * us;
    {
      Value span = chrome_record("round " + std::to_string(e.round), "X", ts,
                                 kRoundsTrack);
      span["dur"] = Value(us);
      out.push_back(std::move(span));
    }
    for (ProcessId p = 0; p <= max_p; ++p) {
      Value span = chrome_record("r" + std::to_string(e.round), "X", ts, p);
      span["dur"] = Value(us);
      out.push_back(std::move(span));
    }
  }

  // Pass 3: the events themselves.
  for (const TraceEvent& e : events) {
    const std::int64_t ts = e.round * us;
    switch (e.kind) {
      case TraceEventKind::kRoundBegin:
      case TraceEventKind::kRoundEnd:
        break;  // rendered as spans above
      case TraceEventKind::kSend: {
        if (e.flow_id < 0 || delivered_flows.count(e.flow_id) == 0) break;
        Value flow = chrome_record("msg", "s", ts + us / 4, e.process);
        flow["id"] = Value(e.flow_id);
        out.push_back(std::move(flow));
        break;
      }
      case TraceEventKind::kDeliver: {
        // Flow finish on the destination's slice: the happened-before edge
        // sender@sent_round -> dest@delivery_round (Definition 2.3).
        Value flow = chrome_record("msg", "f", ts + (3 * us) / 4, e.peer);
        flow["id"] = Value(e.flow_id);
        flow["bp"] = Value("e");
        out.push_back(std::move(flow));
        break;
      }
      case TraceEventKind::kDrop: {
        Value inst = chrome_record("drop", "i", ts + (3 * us) / 4,
                                   e.peer >= 0 ? e.peer : e.process);
        inst["s"] = Value("t");
        inst["args"]["cause"] = Value(e.detail);
        inst["args"]["sender"] = Value(e.process);
        inst["args"]["sent_round"] = Value(e.aux);
        out.push_back(std::move(inst));
        break;
      }
      case TraceEventKind::kClockAdopt: {
        Value counter = chrome_record("clock_" + std::to_string(e.process),
                                      "C", ts + us - 1, e.process);
        counter["args"]["value"] = Value(e.aux);
        out.push_back(std::move(counter));
        break;
      }
      case TraceEventKind::kFaultManifest: {
        Value inst = chrome_record("fault", "i", ts + us / 2, e.process);
        inst["s"] = Value("t");
        inst["args"]["kind"] = Value(e.detail);
        out.push_back(std::move(inst));
        break;
      }
      case TraceEventKind::kCoterieChange: {
        Value inst =
            chrome_record("coterie change", "i", ts + us - 1, kRoundsTrack);
        inst["s"] = Value("g");  // global: the paper's de-stabilizing event
        inst["args"]["members"] = e.data;
        out.push_back(std::move(inst));
        break;
      }
      case TraceEventKind::kSuspectDelta: {
        Value inst = chrome_record("suspects", "i", ts + us - 1, e.process);
        inst["s"] = Value("t");
        inst["args"]["delta"] = e.data;
        out.push_back(std::move(inst));
        break;
      }
    }
  }

  return chrome_document(std::move(out), "ms") + "\n";
}

}  // namespace ftss
