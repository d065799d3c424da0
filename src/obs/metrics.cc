#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace ftss {

const std::vector<std::int64_t>& bounds_for(BoundsFamily family) {
  switch (family) {
    case BoundsFamily::kRounds: {
      static const std::vector<std::int64_t> bounds{0, 1, 2, 4, 8, 16, 32};
      return bounds;
    }
    case BoundsFamily::kCoterieSize: {
      static const std::vector<std::int64_t> bounds{0, 1, 2, 4, 8,
                                                    16, 32, 64};
      return bounds;
    }
    case BoundsFamily::kLatencyNanos: {
      // Powers of two from 64ns to 2^34 ns (~17s): sub-bucket latencies
      // land in min/sum exactly, everything else within a 2x bucket.
      static const std::vector<std::int64_t> bounds = [] {
        std::vector<std::int64_t> b;
        for (std::int64_t v = 64; v <= (std::int64_t{1} << 34); v <<= 1) {
          b.push_back(v);
        }
        return b;
      }();
      return bounds;
    }
    case BoundsFamily::kSimTime: {
      static const std::vector<std::int64_t> bounds = [] {
        std::vector<std::int64_t> b;
        for (std::int64_t v = 1; v <= (std::int64_t{1} << 21); v <<= 1) {
          b.push_back(v);
        }
        return b;
      }();
      return bounds;
    }
    case BoundsFamily::kBatchFill: {
      static const std::vector<std::int64_t> bounds = [] {
        std::vector<std::int64_t> b{0};
        for (std::int64_t v = 1; v <= 4096; v <<= 1) b.push_back(v);
        return b;
      }();
      return bounds;
    }
  }
  static const std::vector<std::int64_t> empty;
  return empty;
}

const std::vector<std::int64_t>& stabilization_latency_bounds() {
  return bounds_for(BoundsFamily::kRounds);
}

const std::vector<std::int64_t>& coterie_size_bounds() {
  return bounds_for(BoundsFamily::kCoterieSize);
}

const std::vector<std::int64_t>& latency_nanos_bounds() {
  return bounds_for(BoundsFamily::kLatencyNanos);
}

void HistogramData::observe(std::int64_t v) {
  if (counts.empty()) counts.assign(bounds.size() + 1, 0);
  std::size_t b = 0;
  while (b < bounds.size() && v > bounds[b]) ++b;
  ++counts[b];
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

void HistogramData::merge_from(const HistogramData& other) {
  wall_clock = wall_clock || other.wall_clock;
  if (count == 0) {
    bounds = other.bounds;
    counts = other.counts;
    count = other.count;
    sum = other.sum;
    min = other.min;
    max = other.max;
    return;
  }
  if (other.count == 0) return;
  if (bounds == other.bounds) {
    if (counts.empty()) counts.assign(bounds.size() + 1, 0);
    for (std::size_t b = 0; b < counts.size() && b < other.counts.size();
         ++b) {
      counts[b] += other.counts[b];
    }
  } else {
    // Layout mismatch: keep the union meaningful at the scalar level by
    // degrading to the summary-only histogram (empty bucket layout).
    bounds.clear();
    counts.clear();
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

std::int64_t HistogramData::percentile_upper(int pct) const {
  if (count <= 0) return 0;
  pct = std::clamp(pct, 0, 100);
  // Rank of the percentile observation, 1-based, ceil(pct/100 * count).
  const std::int64_t rank =
      std::max<std::int64_t>(1, (count * pct + 99) / 100);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) {
      if (b < bounds.size()) return std::min(bounds[b], max);
      return max;  // +inf bucket: the observed max is the only bound
    }
  }
  return max;  // summary-only histogram (no bucket layout)
}

Value HistogramData::to_value() const {
  Value v;
  Value::Array bs, cs;
  for (std::int64_t b : bounds) bs.push_back(Value(b));
  for (std::int64_t c : counts) cs.push_back(Value(c));
  v["bounds"] = Value(std::move(bs));
  v["counts"] = Value(std::move(cs));
  v["count"] = Value(count);
  v["sum"] = Value(sum);
  if (count > 0) {
    v["min"] = Value(min);
    v["max"] = Value(max);
  }
  if (wall_clock) {
    v["unit"] = Value("ns");
    v["p50"] = Value(percentile_upper(50));
    v["p90"] = Value(percentile_upper(90));
    v["p99"] = Value(percentile_upper(99));
  }
  return v;
}

namespace {

// The metric called `name`, value-initialized if absent, and whether it
// was.  A hit builds no node and copies no name.
template <typename T>
std::pair<T&, bool> find_or_insert(MetricMap<T>& map, std::string_view name) {
  auto it = map.lower_bound(name);
  if (it != map.end() && it->first == name) return {it->second, false};
  it = map.emplace_hint(it, std::string(name), T{});
  return {it->second, true};
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) {
    auto [gauge, inserted] = find_or_insert(gauges, name);
    gauge = inserted ? v : std::max(gauge, v);
  }
  for (const auto& [name, h] : other.histograms) {
    // Merging into a new (empty) histogram copies `h`.
    find_or_insert(histograms, name).first.merge_from(h);
  }
}

namespace {

// which: 0 = everything, 1 = stable only, 2 = wall-clock only.
Value snapshot_to_value(const MetricsSnapshot& s, int which) {
  Value v;
  Value cs, gs, hs;
  if (which != 2) {
    for (const auto& [name, c] : s.counters) cs[name] = Value(c);
    for (const auto& [name, g] : s.gauges) gs[name] = Value(g);
  }
  for (const auto& [name, h] : s.histograms) {
    if (which == 1 && h.wall_clock) continue;
    if (which == 2 && !h.wall_clock) continue;
    hs[name] = h.to_value();
  }
  v["counters"] = std::move(cs);
  v["gauges"] = std::move(gs);
  v["histograms"] = std::move(hs);
  return v;
}

}  // namespace

Value MetricsSnapshot::to_value() const { return snapshot_to_value(*this, 0); }

Value MetricsSnapshot::stable_value() const {
  return snapshot_to_value(*this, 1);
}

Value MetricsSnapshot::timing_value() const {
  return snapshot_to_value(*this, 2);
}

Value MetricsSnapshot::document() const {
  Value stable = stable_value();
  std::ostringstream fingerprint;
  fingerprint << "0x" << std::hex << stable.hash();
  Value doc;
  doc["schema"] = Value("ftss-metrics-v1");
  doc["fingerprint"] = Value(fingerprint.str());
  doc["metrics"] = std::move(stable);
  doc["timing"] = timing_value();
  return doc;
}

void MetricsRegistry::add(std::string_view name, std::int64_t delta) {
  find_or_insert(snap_.counters, name).first += delta;
}

void MetricsRegistry::gauge_max(std::string_view name, std::int64_t v) {
  auto [gauge, inserted] = find_or_insert(snap_.gauges, name);
  gauge = inserted ? v : std::max(gauge, v);
}

void MetricsRegistry::observe(std::string_view name, std::int64_t v,
                              const std::vector<std::int64_t>& bounds) {
  auto [hist, inserted] = find_or_insert(snap_.histograms, name);
  if (inserted) hist.bounds = bounds;
  hist.observe(v);
}

void MetricsRegistry::observe_nanos(std::string_view name, std::int64_t ns) {
  timing(name).observe(ns);
}

HistogramData& MetricsRegistry::timing(std::string_view name) {
  auto [hist, inserted] = find_or_insert(snap_.histograms, name);
  if (inserted) hist.bounds = latency_nanos_bounds();
  hist.wall_clock = true;
  return hist;
}

void record_history_metrics(const History& h, MetricsRegistry& m) {
  // The counter each fate adds to, indexed by Fate; an unresolved send
  // counts only as sent.
  constexpr const char* kCounterByFate[kNumFates] = {
      "msgs_delivered",
      "msgs_dropped_send_omission",
      "msgs_dropped_receive_omission",
      "msgs_dropped_dest_crashed",
      "msgs_in_flight_at_end",
      "msgs_dropped_frame_corrupt",
      nullptr};
  m.add("rounds", h.length());
  // Per-send counts stay in locals: one registry lookup per counter per
  // history, not per send.  A count that never fired adds no key.
  std::int64_t sent = 0, delayed = 0;
  std::int64_t by_fate[kNumFates] = {};
  std::int64_t suspect_churn = 0;
  const std::vector<std::vector<ProcessId>>* prev_suspects = nullptr;
  const std::vector<bool>* prev_coterie = nullptr;
  for (const RoundRecord& rec : h.rounds) {
    for (const SendRecord& s : rec.sends) {
      ++sent;
      if (s.delivery_round != s.sent_round) ++delayed;
      ++by_fate[static_cast<std::size_t>(s.fate)];
    }
    std::int64_t size = 0;
    for (bool in : rec.coterie) size += in ? 1 : 0;
    m.observe("coterie_size", size, coterie_size_bounds());
    m.gauge_max("coterie_size_peak", size);
    if (prev_coterie != nullptr && *prev_coterie != rec.coterie) {
      m.add("coterie_changes");
    }
    prev_coterie = &rec.coterie;
    if (!rec.suspects.empty()) {
      if (prev_suspects != nullptr) {
        for (std::size_t p = 0;
             p < rec.suspects.size() && p < prev_suspects->size(); ++p) {
          if (rec.suspects[p] != (*prev_suspects)[p]) ++suspect_churn;
        }
      }
      prev_suspects = &rec.suspects;
    }
  }
  const auto add_fired = [&m](const char* name, std::int64_t count) {
    if (count > 0) m.add(name, count);
  };
  add_fired("msgs_sent", sent);
  add_fired("msgs_delayed", delayed);
  for (std::size_t f = 0; f < kNumFates; ++f) {
    if (kCounterByFate[f] != nullptr) add_fired(kCounterByFate[f], by_fate[f]);
  }
  if (suspect_churn > 0 || prev_suspects != nullptr) {
    m.add("suspect_churn", suspect_churn);
  }
  std::int64_t faulty = 0;
  for (bool f : h.faulty()) faulty += f ? 1 : 0;
  m.gauge_max("faulty_processes", faulty);
}

}  // namespace ftss
