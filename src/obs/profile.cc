#include "obs/profile.h"

namespace ftss {

ScopedTimer::~ScopedTimer() {
  const std::int64_t ns = elapsed_ns();
  if (hist_ != nullptr) {
    hist_->wall_clock = true;
    hist_->observe(ns);
  }
  if (cat_ != FlightCat::kNone) FlightRecorder::span(cat_, a_, start_ns_);
}

}  // namespace ftss
