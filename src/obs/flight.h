// Flight recorder: always-on, per-thread, fixed-capacity ring buffers of
// compact binary wall-clock events.
//
// The paper's headline results are *time* bounds, and since the socket
// transport leg (src/net/) the repo has components with real wall-clock
// behavior.  The flight recorder is the black box for them: every thread
// that records gets its own preallocated ring of POD events (steady_clock
// timestamp, category, kind, two int64 args), so recording is
// zero-allocation and O(1); when something goes wrong — an oracle fails, a
// lockstep diverges, a WireError rejection fires — FlightRecorder::dump()
// snapshots every ring (live and recently-retired) into one document that
// `ftss_trace --flight` decodes to JSONL or Chrome trace JSON.
//
// Determinism contract: nothing here ever feeds a stable fingerprint.  The
// recorder is a side tape; histories, conform sweep fingerprints and
// MetricsSnapshot::fingerprint() are computed from wall-clock-free data and
// stay byte-identical with the recorder on or off.
//
// Concurrency: record() appends to the calling thread's own ring under that
// ring's mutex (uncontended in steady state — the only other acquirer is a
// dump in progress), so recording from transport process threads while the
// hub dumps is safe and TSan-clean.  Ring wrap-around overwrites the oldest
// events and advances a monotone events_dropped counter.
//
// On-disk form: a 5-byte header (magic "FTFR", version) followed by one
// wire-codec-encoded Value (src/wire/codec.h), so dumps inherit the codec's
// typed decode errors — a truncated dump file is a WireError, never UB.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "util/value.h"
#include "wire/codec.h"

namespace ftss {

struct MetricsSnapshot;

// Event category.  Kept small and closed: flight events are binary, so the
// category is the event's only name.
enum class FlightCat : std::uint16_t {
  kNone = 0,   // never recorded; ScopedTimer's "no flight event" selector
  kTrial,      // one checker/conform/transport trial     a=seed/index b=ns
  kRound,      // one hub-dispatched transport round      a=round     b=ns
  kEncode,     // one frame encode on a Channel           a=bytes     b=ns
  kDecode,     // one frame decode on a Channel           a=bytes     b=ns
  kReject,     // a typed WireError frame rejection       a=dest      b=code
  kOracle,     // an oracle evaluation / failure          a=index     b=ns
  kSim,        // a simulator trace event (FlightTraceSink) a=kind    b=round
  kMark,       // free-form instant                       a,b caller-defined
  kLane,       // one parallel round-engine lane phase    a=round     b=ns
};
const char* flight_cat_name(FlightCat cat);

enum class FlightKind : std::uint16_t {
  kInstant = 0,  // point event at t_ns
  kSpan = 1,     // interval: starts at t_ns, lasts b nanoseconds
};

// 32-byte POD record; the ring is a preallocated vector of these.
struct FlightEvent {
  std::int64_t t_ns = 0;  // steady_clock ns since the recorder's epoch
  std::uint16_t cat = 0;
  std::uint16_t kind = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

// One thread's ring as captured by dump(): newest `events.size()` events in
// recording order, plus how many older ones the wrap discarded.
struct FlightThreadDump {
  std::int64_t tid = 0;  // small registration index, not the OS tid
  std::int64_t events_dropped = 0;
  std::vector<FlightEvent> events;
};

struct FlightDump {
  std::int64_t rings_dropped = 0;  // retired rings evicted before this dump
  std::vector<FlightThreadDump> threads;
};

class FlightRecorder {
 public:
  // Process-wide singleton.  Enabled by default; FTSS_FLIGHT=0 in the
  // environment disables recording at startup (dump() still works and
  // returns whatever was recorded while enabled).
  static FlightRecorder& global();

  bool enabled() const;
  void set_enabled(bool on);

  // Capacity (in events) of rings created after the call.  Existing rings
  // keep theirs.  Values < 2 are clamped to 2.
  void set_ring_capacity(std::size_t capacity);

  // Drops every ring (live threads re-register on their next record) and
  // zeroes the retired-ring eviction counter.  Test hook.
  void reset();

  // --- Recording (static: resolves the calling thread's ring) ------------

  // Nanoseconds since the recorder's epoch (first use), steady_clock.
  static std::int64_t now_ns();

  // Point event stamped now.
  static void instant(FlightCat cat, std::int64_t a, std::int64_t b);
  // Interval event: caller took start = now_ns() beforehand; the event is
  // stamped at `start_ns` with duration now - start in `b`.
  static void span(FlightCat cat, std::int64_t a, std::int64_t start_ns);

  // --- Dumping ------------------------------------------------------------

  // Snapshot of every ring: live threads' (under each ring's lock, so it is
  // safe during active recording) plus retired threads'.
  FlightDump dump() const;

  // Encoded dump written to `path`; false on I/O failure.
  bool dump_to_file(const std::string& path) const;

 private:
  FlightRecorder();
  struct Ring;
  friend struct FlightThreadHandle;

  std::shared_ptr<Ring> adopt_ring();
  void retire_ring(std::shared_ptr<Ring> ring);

  mutable std::mutex mu_;  // guards the ring lists and counters below
  std::vector<std::shared_ptr<Ring>> live_;
  std::vector<std::shared_ptr<Ring>> retired_;
  std::int64_t rings_dropped_ = 0;
  std::int64_t next_tid_ = 0;
  std::size_t capacity_ = 4096;
  // Atomics so the record fast path checks them without taking mu_.
  std::atomic<std::uint64_t> generation_{0};  // bumped by reset()
  std::atomic<bool> enabled_{true};
};

// --- Dump serialization (wire codec) --------------------------------------

Value flight_dump_to_value(const FlightDump& dump);
void encode_flight_dump(const FlightDump& dump, std::vector<std::uint8_t>& out);

struct FlightDecodeResult {
  wire::WireError error = wire::WireError::kOk;
  FlightDump dump;
};
FlightDecodeResult decode_flight_dump(const std::uint8_t* data,
                                      std::size_t size);

// One JSON object per event, one line per event (Value::parse inverts).
std::string flight_dump_to_jsonl(const FlightDump& dump);
// Chrome trace_event JSON ({"traceEvents": [...]}): spans as "X" complete
// events, instants as "i", one track per recorded thread.
std::string flight_dump_to_chrome(const FlightDump& dump);

// --- Failure artifacts ----------------------------------------------------

// Writes <prefix>.flight (the global recorder's dump) and, when `metrics`
// is non-null, <prefix>.metrics.json (its ftss-metrics-v1 document, timing
// included).  Returns the flight-dump path, or "" if writing either file
// failed.
std::string dump_failure_artifacts(const std::string& prefix,
                                   const MetricsSnapshot* metrics);

// Dump-on-failure for the ftss_check / ftss_conform tools: writes the
// artifacts above as <dir>/<stem>.*, where <dir> is `dir_flag` (their
// --dump-dir) if non-empty, else $FTSS_DUMP_DIR, else ".", and prints
// "flight dump: <path> (decode with ftss_trace --flight <path>)" to stdout
// if the flight dump was written.
void report_failure_dump(const std::string& dir_flag, const char* stem,
                         const MetricsSnapshot* metrics);

// --- Simulator adapter ----------------------------------------------------

// TraceSink that records each simulator event as one flight instant
// (cat kSim, a = TraceEventKind, b = round; no allocation, no Value
// inspection).  Attaching it costs what any sink costs — the untraced
// run_rounds instantiation still carries zero emission code
// (bench_overhead's BM_TracedRoundAgreement/0 vs /3 pins both claims).
class FlightTraceSink : public TraceSink {
 public:
  void event(const TraceEvent& e) override;
};

}  // namespace ftss
