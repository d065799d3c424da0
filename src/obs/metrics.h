// Stabilization metrics registry: counters, gauges and histograms with a
// deterministic snapshot-and-merge API.
//
// Design constraints, in order:
//  1. Determinism.  A snapshot serializes to a canonical Value (sorted
//     names, fixed bucket layout) and merge() is associative and
//     commutative, so folding per-trial snapshots in trial-index order
//     yields byte-identical aggregates for any worker-thread count — the
//     same stable-fingerprint property the explorer guarantees for trial
//     outcomes.  ftss_check --metrics-out relies on this.
//  2. No doubles.  All metric values are int64 (Value excludes floating
//     point so equality stays exact); histogram means etc. are derived by
//     consumers from count/sum.
//
// Wall-clock histograms (obs/profile.h feeds them) get one carve-out from
// constraint 1: their *contents* are timing-dependent, so they are flagged
// (HistogramData::wall_clock), serialized only by to_value()/timing_value()
// and excluded from stable_value() — which is what fingerprint() hashes.
// A profiled run therefore keeps a byte-identical stable fingerprint while
// its snapshot dumps carry p50/p90/p99/max latency summaries.
//
// Merge semantics: counters add; gauges take the max (their use here is
// high-watermarks like peak coterie size); histograms with identical bounds
// add bucket-wise (count/sum add, min/max combine).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/history.h"
#include "util/value.h"

namespace ftss {

// Named bucket-bound families.  Every histogram in the system draws its
// layout from one of these, so merge/fingerprint logic never depends on
// which unit a histogram measures in.
enum class BoundsFamily {
  kRounds,        // stabilization latency: {0,1,2,4,...,32} rounds
  kCoterieSize,   // {0,1,2,4,...,64} processes
  kLatencyNanos,  // log-bucketed (HDR-style) powers of two, 64ns..~17s
  // Simulated-time latency (EventSimulator Time units).  Unlike
  // kLatencyNanos these observations are pure functions of the seed, so
  // histograms over them are NOT wall_clock-flagged: they participate in
  // stable fingerprints, which is how the serving layer pins its
  // request-latency distributions.
  kSimTime,       // powers of two, 1..2^21 sim-time units
  kBatchFill,     // commands per consensus batch: {0,1,2,4,...,4096}
};
const std::vector<std::int64_t>& bounds_for(BoundsFamily family);

struct HistogramData {
  // Upper bounds of the first size() buckets; a final implicit +inf bucket
  // follows.  counts.size() == bounds.size() + 1.
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // meaningful iff count > 0
  std::int64_t max = 0;
  // True for timing histograms (nanosecond observations from wall-clock
  // timers).  Sticky across merge; excluded from stable fingerprints.
  bool wall_clock = false;

  void observe(std::int64_t v);

  // The shared merge kernel (snapshot merge and ad-hoc fold sites both use
  // it): bucket-wise add when layouts match, else degrade to the
  // summary-only histogram (bounds/counts cleared) so the operation stays
  // total, associative and commutative.
  void merge_from(const HistogramData& other);

  // Upper bound of the bucket containing the pct-th percentile observation
  // (pct in [0,100]), clamped to the observed max so the +inf bucket and
  // sparse tails report a real value.  0 when empty.  Bucket upper bounds
  // are exact for the log-bucketed families — the standard HDR trade:
  // percentile error bounded by bucket width.
  std::int64_t percentile_upper(int pct) const;

  Value to_value() const;
};

// Metrics by name, in std::less<std::string> order.  The comparator is
// transparent so a registry call looks a name up from a string_view (a
// literal at the call site) without building a std::string.
template <typename T>
using MetricMap = std::map<std::string, T, std::less<>>;

struct MetricsSnapshot {
  MetricMap<std::int64_t> counters;
  MetricMap<std::int64_t> gauges;
  MetricMap<HistogramData> histograms;

  // Associative + commutative combine (see header comment).  Histograms
  // with mismatched bucket layouts merge via their scalar summary only
  // (count/sum/min/max), keeping the operation total and deterministic.
  void merge(const MetricsSnapshot& other);

  // Canonical serialization: {"counters": {...}, "gauges": {...},
  // "histograms": {name: {"bounds": [...], "counts": [...], ...}}}.
  // Includes wall-clock histograms (with p50/p90/p99 summaries).
  Value to_value() const;

  // to_value() minus every wall-clock histogram: the deterministic part.
  Value stable_value() const;
  // Only the wall-clock histograms (empty "histograms" map when none).
  Value timing_value() const;

  // Stable content fingerprint (Value::hash of the canonical *stable*
  // form) — invariant under profiling, recorder state and machine speed.
  std::uint64_t fingerprint() const { return stable_value().hash(); }

  // The ftss-metrics-v1 document every tool writes: {"schema",
  // "fingerprint" ("0x" + hex), "metrics": stable_value(), "timing":
  // timing_value()}.  "metrics" is the deterministic part (identical across
  // --threads and machine speed); wall-clock histograms ride in "timing" so
  // the split is unmissable to anything diffing these files.  Callers add
  // what identifies their run (seed and trials, or plan_seed).
  Value document() const;
};

// Accumulation-side API.  Not thread-safe by design: each worker owns a
// registry (or builds per-trial snapshots) and snapshots are merged.  Each
// call looks its name up first and copies it only when the metric is new.
class MetricsRegistry {
 public:
  void add(std::string_view name, std::int64_t delta = 1);
  // Gauge as high-watermark: keeps the max of all observed values.
  void gauge_max(std::string_view name, std::int64_t v);
  // First observation fixes the bucket bounds; later calls ignore `bounds`.
  void observe(std::string_view name, std::int64_t v,
               const std::vector<std::int64_t>& bounds);
  // Wall-clock observation: kLatencyNanos bounds, histogram flagged
  // wall_clock (so it stays out of the stable fingerprint).
  void observe_nanos(std::string_view name, std::int64_t ns);
  // The wall-clock histogram observe_nanos(name, ...) feeds, created empty
  // if absent.  The reference stays valid for the registry's lifetime, so a
  // hot loop can time into it (obs/profile.h's ScopedTimer) with no name
  // lookup per observation.
  HistogramData& timing(std::string_view name);

  const MetricsSnapshot& snapshot() const { return snap_; }

 private:
  MetricsSnapshot snap_;
};

// Canonical bucket layouts (aliases into bounds_for()).
const std::vector<std::int64_t>& stabilization_latency_bounds();  // rounds
const std::vector<std::int64_t>& coterie_size_bounds();
const std::vector<std::int64_t>& latency_nanos_bounds();

// Fold the observer-visible facts of a recorded history into `m`:
//   msgs_sent / msgs_delivered / msgs_dropped_{send_omission,
//   receive_omission, dest_crashed, frame_corrupt} / msgs_in_flight_at_end
//   (jitter delay past the final executed round) / msgs_delayed (jitter),
//   rounds,
//   coterie_changes, suspect_churn (membership changes between recorded
//   suspect sets), histogram coterie_size, gauges coterie_size_peak and
//   faulty_processes.
void record_history_metrics(const History& h, MetricsRegistry& m);

}  // namespace ftss
