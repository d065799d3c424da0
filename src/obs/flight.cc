#include "obs/flight.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

// Dump container header: 4-byte magic + 1-byte version, then one
// wire-codec-encoded Value.  Deliberately NOT a wire::Frame: extending
// FrameType would perturb the frame layer's exhaustive bit-flip golden
// tests, and dumps are files, not stream messages.
constexpr std::uint8_t kFlightMagic[4] = {'F', 'T', 'F', 'R'};
constexpr std::uint8_t kFlightVersion = 1;
constexpr std::size_t kFlightHeaderSize = 5;

// Retired rings kept for dump(); beyond this the oldest is evicted and
// counted in rings_dropped.  Bounds memory across long sweeps where every
// transport trial spawns n short-lived process threads.
constexpr std::size_t kMaxRetiredRings = 128;

const char* flight_kind_name(FlightKind kind) {
  return kind == FlightKind::kSpan ? "span" : "instant";
}

}  // namespace

const char* flight_cat_name(FlightCat cat) {
  switch (cat) {
    case FlightCat::kNone:
      return "none";
    case FlightCat::kTrial:
      return "trial";
    case FlightCat::kRound:
      return "round";
    case FlightCat::kEncode:
      return "encode";
    case FlightCat::kDecode:
      return "decode";
    case FlightCat::kReject:
      return "reject";
    case FlightCat::kOracle:
      return "oracle";
    case FlightCat::kSim:
      return "sim";
    case FlightCat::kMark:
      return "mark";
    case FlightCat::kLane:
      return "lane";
  }
  return "unknown";
}

namespace {

// Adapters wiring the simulator's layering-neutral lane hooks (see
// SimLaneHooks in sim/simulator.h) onto the flight recorder: any binary
// that links the obs library gets per-worker kLane spans from the parallel
// round engine, recorded into each worker thread's own ring.  Installed by
// a namespace-scope initializer — flight.cc is linked in iff something in
// the binary uses the recorder, which is exactly when the spans have
// somewhere to go.
void record_lane_span(Round round, std::int64_t t0) {
  FlightRecorder::span(FlightCat::kLane, round, t0);
}

[[maybe_unused]] const bool kLaneHooksInstalled = [] {
  set_sim_lane_hooks(
      SimLaneHooks{&FlightRecorder::now_ns, &record_lane_span});
  return true;
}();

}  // namespace

// One thread's preallocated ring.  The mutex is uncontended in steady state
// (only the owning thread records); a dump in progress is the only other
// acquirer, which is what makes dump-during-active-recording TSan-clean.
struct FlightRecorder::Ring {
  std::mutex mu;
  std::int64_t tid = 0;
  std::uint64_t generation = 0;
  std::int64_t total = 0;  // events ever recorded; ring holds the newest
  std::vector<FlightEvent> events;

  void record(const FlightEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events[static_cast<std::size_t>(total) % events.size()] = e;
    ++total;
  }

  FlightThreadDump snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    FlightThreadDump d;
    d.tid = tid;
    const std::int64_t capacity = static_cast<std::int64_t>(events.size());
    const std::int64_t kept = std::min(total, capacity);
    d.events_dropped = total - kept;
    d.events.reserve(static_cast<std::size_t>(kept));
    for (std::int64_t i = total - kept; i < total; ++i) {
      d.events.push_back(
          events[static_cast<std::size_t>(i) % events.size()]);
    }
    return d;
  }
};

struct FlightThreadHandle {
  // Per-thread handle: caches this thread's ring and retires it (so its
  // tail still shows up in dumps) when the thread exits.
  struct ThreadRing {
    std::shared_ptr<FlightRecorder::Ring> ring;
    ~ThreadRing() {
      if (ring != nullptr) {
        FlightRecorder::global().retire_ring(std::move(ring));
      }
    }
  };

  static FlightRecorder::Ring& ring_for_this_thread(FlightRecorder& r) {
    thread_local ThreadRing tl;
    if (tl.ring == nullptr ||
        tl.ring->generation !=
            r.generation_.load(std::memory_order_acquire)) {
      tl.ring = r.adopt_ring();
    }
    return *tl.ring;
  }
};

FlightRecorder::FlightRecorder() {
  const char* env = std::getenv("FTSS_FLIGHT");
  if (env != nullptr && std::string_view(env) == "0") {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::global() {
  // Leaked singleton: thread_local ring handles retire through it during
  // thread shutdown, which can outlive function-local statics.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

bool FlightRecorder::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void FlightRecorder::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void FlightRecorder::set_ring_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<std::size_t>(capacity, 2);
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
  retired_.clear();
  rings_dropped_ = 0;
  next_tid_ = 0;
  // Threads holding a stale ring notice the generation change on their next
  // record and adopt a fresh one.
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<FlightRecorder::Ring> FlightRecorder::adopt_ring() {
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_shared<Ring>();
  ring->tid = next_tid_++;
  ring->generation = generation_.load(std::memory_order_relaxed);
  ring->events.resize(capacity_);
  live_.push_back(ring);
  return ring;
}

void FlightRecorder::retire_ring(std::shared_ptr<Ring> ring) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(live_.begin(), live_.end(), ring);
  if (it != live_.end()) live_.erase(it);
  if (ring->generation != generation_.load(std::memory_order_relaxed)) {
    return;  // reset() already disowned it
  }
  {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    if (ring->total == 0) return;  // nothing recorded; not worth keeping
  }
  retired_.push_back(std::move(ring));
  while (retired_.size() > kMaxRetiredRings) {
    retired_.erase(retired_.begin());
    ++rings_dropped_;
  }
}

std::int64_t FlightRecorder::now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void FlightRecorder::instant(FlightCat cat, std::int64_t a, std::int64_t b) {
  FlightRecorder& r = global();
  if (!r.enabled_.load(std::memory_order_relaxed)) return;
  FlightThreadHandle::ring_for_this_thread(r).record(FlightEvent{
      now_ns(), static_cast<std::uint16_t>(cat),
      static_cast<std::uint16_t>(FlightKind::kInstant), a, b});
}

void FlightRecorder::span(FlightCat cat, std::int64_t a,
                          std::int64_t start_ns) {
  FlightRecorder& r = global();
  if (!r.enabled_.load(std::memory_order_relaxed)) return;
  FlightThreadHandle::ring_for_this_thread(r).record(FlightEvent{
      start_ns, static_cast<std::uint16_t>(cat),
      static_cast<std::uint16_t>(FlightKind::kSpan), a,
      now_ns() - start_ns});
}

FlightDump FlightRecorder::dump() const {
  FlightDump d;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings.reserve(retired_.size() + live_.size());
    rings.insert(rings.end(), retired_.begin(), retired_.end());
    rings.insert(rings.end(), live_.begin(), live_.end());
    d.rings_dropped = rings_dropped_;
  }
  for (const std::shared_ptr<Ring>& ring : rings) {
    FlightThreadDump td = ring->snapshot();
    if (!td.events.empty() || td.events_dropped > 0) {
      d.threads.push_back(std::move(td));
    }
  }
  std::sort(d.threads.begin(), d.threads.end(),
            [](const FlightThreadDump& a, const FlightThreadDump& b) {
              return a.tid < b.tid;
            });
  return d;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::vector<std::uint8_t> bytes;
  encode_flight_dump(dump(), bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes: a full device fails here, not at the write
  return !out.fail();
}

// --- Dump serialization ---------------------------------------------------

Value flight_dump_to_value(const FlightDump& dump) {
  Value v;
  v["schema"] = Value("ftss-flight-v1");
  v["rings_dropped"] = Value(dump.rings_dropped);
  Value::Array threads;
  for (const FlightThreadDump& td : dump.threads) {
    Value t;
    t["tid"] = Value(td.tid);
    t["dropped"] = Value(td.events_dropped);
    Value::Array events;
    events.reserve(td.events.size());
    for (const FlightEvent& e : td.events) {
      events.push_back(Value(Value::Array{
          Value(e.t_ns), Value(static_cast<std::int64_t>(e.cat)),
          Value(static_cast<std::int64_t>(e.kind)), Value(e.a),
          Value(e.b)}));
    }
    t["events"] = Value(std::move(events));
    threads.push_back(std::move(t));
  }
  v["threads"] = Value(std::move(threads));
  return v;
}

void encode_flight_dump(const FlightDump& dump,
                        std::vector<std::uint8_t>& out) {
  out.insert(out.end(), kFlightMagic, kFlightMagic + 4);
  out.push_back(kFlightVersion);
  wire::encode_value(flight_dump_to_value(dump), out);
}

FlightDecodeResult decode_flight_dump(const std::uint8_t* data,
                                      std::size_t size) {
  FlightDecodeResult r;
  if (size < kFlightHeaderSize) {
    r.error = wire::WireError::kTruncated;
    return r;
  }
  if (!std::equal(kFlightMagic, kFlightMagic + 4, data)) {
    r.error = wire::WireError::kBadMagic;
    return r;
  }
  if (data[4] != kFlightVersion) {
    r.error = wire::WireError::kBadVersion;
    return r;
  }
  wire::ValueDecodeResult decoded =
      wire::decode_value(data + kFlightHeaderSize, size - kFlightHeaderSize);
  if (decoded.error != wire::WireError::kOk) {
    r.error = decoded.error;
    return r;
  }
  if (decoded.consumed != size - kFlightHeaderSize) {
    r.error = wire::WireError::kTrailingBytes;
    return r;
  }
  const Value& v = decoded.value;
  if (v.at("schema").string_or("") != "ftss-flight-v1") {
    r.error = wire::WireError::kBadVersion;
    return r;
  }
  r.dump.rings_dropped = v.at("rings_dropped").int_or(0);
  const Value& threads = v.at("threads");
  if (threads.is_array()) {
    for (const Value& t : threads.as_array()) {
      FlightThreadDump td;
      td.tid = t.at("tid").int_or(0);
      td.events_dropped = t.at("dropped").int_or(0);
      const Value& events = t.at("events");
      if (events.is_array()) {
        td.events.reserve(events.as_array().size());
        for (const Value& ev : events.as_array()) {
          if (!ev.is_array() || ev.as_array().size() != 5) continue;
          const Value::Array& f = ev.as_array();
          FlightEvent e;
          e.t_ns = f[0].int_or(0);
          e.cat = static_cast<std::uint16_t>(f[1].int_or(0));
          e.kind = static_cast<std::uint16_t>(f[2].int_or(0));
          e.a = f[3].int_or(0);
          e.b = f[4].int_or(0);
          td.events.push_back(e);
        }
      }
      r.dump.threads.push_back(std::move(td));
    }
  }
  return r;
}

std::string flight_dump_to_jsonl(const FlightDump& dump) {
  std::string out;
  {
    Value meta;
    meta["schema"] = Value("ftss-flight-jsonl-v1");
    meta["rings_dropped"] = Value(dump.rings_dropped);
    meta["threads"] = Value(static_cast<std::int64_t>(dump.threads.size()));
    out += meta.to_string();
    out += '\n';
  }
  for (const FlightThreadDump& td : dump.threads) {
    if (td.events_dropped > 0) {
      Value drop;
      drop["tid"] = Value(td.tid);
      drop["events_dropped"] = Value(td.events_dropped);
      out += drop.to_string();
      out += '\n';
    }
    for (const FlightEvent& e : td.events) {
      Value line;
      line["tid"] = Value(td.tid);
      line["t_ns"] = Value(e.t_ns);
      line["cat"] = Value(flight_cat_name(static_cast<FlightCat>(e.cat)));
      line["kind"] = Value(flight_kind_name(static_cast<FlightKind>(e.kind)));
      line["a"] = Value(e.a);
      line["b"] = Value(e.b);
      out += line.to_string();
      out += '\n';
    }
  }
  return out;
}

std::string flight_dump_to_chrome(const FlightDump& dump) {
  Value::Array events;
  for (const FlightThreadDump& td : dump.threads) {
    for (const FlightEvent& e : td.events) {
      const char* name = flight_cat_name(static_cast<FlightCat>(e.cat));
      const bool span = static_cast<FlightKind>(e.kind) == FlightKind::kSpan;
      // Chrome timestamps are microseconds.
      Value ev = chrome_record(name, span ? "X" : "i", e.t_ns / 1000, td.tid,
                               /*pid=*/1);
      ev["cat"] = Value(name);
      if (span) {
        ev["dur"] = Value(e.b / 1000);
      } else {
        ev["s"] = Value("t");
      }
      ev["args"]["a"] = Value(e.a);
      ev["args"]["b"] = Value(e.b);
      events.push_back(std::move(ev));
    }
  }
  return chrome_document(std::move(events), "ns");
}

// --- Failure artifacts ----------------------------------------------------

std::string dump_failure_artifacts(const std::string& prefix,
                                   const MetricsSnapshot* metrics) {
  const std::string flight_path = prefix + ".flight";
  if (!FlightRecorder::global().dump_to_file(flight_path)) return "";
  if (metrics != nullptr) {
    std::ofstream out(prefix + ".metrics.json", std::ios::trunc);
    out << metrics->document().to_string() << "\n";
    out.close();
    if (out.fail()) return "";
  }
  return flight_path;
}

void report_failure_dump(const std::string& dir_flag, const char* stem,
                         const MetricsSnapshot* metrics) {
  std::string dir = dir_flag;
  if (dir.empty()) {
    const char* env = std::getenv("FTSS_DUMP_DIR");
    dir = env != nullptr && env[0] != '\0' ? env : ".";
  }
  const std::string path =
      dump_failure_artifacts(dir + "/" + stem, metrics);
  if (!path.empty()) {
    std::cout << "flight dump: " << path << " (decode with ftss_trace "
              << "--flight " << path << ")\n";
  }
}

// --- Simulator adapter ----------------------------------------------------

void FlightTraceSink::event(const TraceEvent& e) {
  FlightRecorder::instant(FlightCat::kSim,
                          static_cast<std::int64_t>(e.kind), e.round);
}

}  // namespace ftss
