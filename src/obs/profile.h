// Phase profiler: RAII scoped wall-clock timers feeding log-bucketed
// latency histograms (obs/metrics.h, nanosecond bound family) and,
// optionally, flight-recorder spans (obs/flight.h).
//
// A ScopedTimer brackets one phase — a codec encode, a hub round dispatch,
// a whole checker trial — and on destruction observes the elapsed
// nanoseconds into its target histogram and/or emits one flight span.  The
// histograms it feeds are wall-clock histograms: they ride in snapshots and
// bench --json output with p50/p90/p99/max summaries but are excluded from
// MetricsSnapshot::fingerprint(), so profiled runs keep byte-identical
// stable fingerprints (the determinism contract in metrics.h).
#pragma once

#include <cstdint>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace ftss {

class ScopedTimer {
 public:
  // Observes into `hist` (caller keeps it alive past the scope).  Pass a
  // FlightCat other than kNone to also emit a flight span with argument `a`.
  explicit ScopedTimer(HistogramData* hist,
                       FlightCat cat = FlightCat::kNone, std::int64_t a = 0)
      : hist_(hist), cat_(cat), a_(a),
        start_ns_(FlightRecorder::now_ns()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Elapsed so far; the destructor records elapsed-at-destruction.
  std::int64_t elapsed_ns() const {
    return FlightRecorder::now_ns() - start_ns_;
  }

  // Lets the flight-span argument carry a quantity only known inside the
  // scope (e.g. encoded byte count).
  void set_arg(std::int64_t a) { a_ = a; }

  ~ScopedTimer();

 private:
  HistogramData* hist_ = nullptr;
  FlightCat cat_ = FlightCat::kNone;
  std::int64_t a_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace ftss
