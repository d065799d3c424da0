#include "async/event_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace ftss {

class EventSimulator::ContextImpl : public AsyncContext {
 public:
  ContextImpl(EventSimulator* sim, ProcessId self) : sim_(sim), self_(self) {}

  Time now() const override { return sim_->now_; }
  ProcessId self() const override { return self_; }
  int process_count() const override { return sim_->process_count(); }

  void send(ProcessId to, Value payload) override {
    if (to < 0 || to >= sim_->process_count()) {
      throw std::out_of_range("AsyncContext::send: bad destination");
    }
    sim_->enqueue_message(self_, to, std::move(payload));
  }

  void broadcast(const Value& payload) override {
    for (ProcessId q = 0; q < sim_->process_count(); ++q) {
      sim_->enqueue_message(self_, q, payload);
    }
  }

 private:
  EventSimulator* sim_;
  ProcessId self_;
};

namespace {

// The timing rules on AsyncConfig: a tick interval of 0 divides by zero when
// the first ticks are staggered, and a delay range with lo > hi (or below 0)
// would deliver out of order or in the past.
const AsyncConfig& checked(const AsyncConfig& config) {
  if (config.tick_interval < 1) {
    throw std::invalid_argument("AsyncConfig: tick_interval must be >= 1");
  }
  if (config.min_delay < 0 || config.min_delay > config.max_delay) {
    throw std::invalid_argument(
        "AsyncConfig: need 0 <= min_delay <= max_delay");
  }
  if (config.gst > 0 && config.min_delay > config.max_delay_pre_gst) {
    throw std::invalid_argument(
        "AsyncConfig: need min_delay <= max_delay_pre_gst when gst > 0");
  }
  return config;
}

// The ring's width: the smallest power of two above every delay a send can
// draw and the tick interval, so that every such event goes straight into
// the ring, up to a cap that keeps a long-delay config's ring small.
Time ring_width(const AsyncConfig& config, Time cap) {
  Time reach = std::max(config.tick_interval, config.max_delay);
  if (config.gst > 0) reach = std::max(reach, config.max_delay_pre_gst);
  Time width = 1;
  while (width <= reach && width < cap) width *= 2;
  return width;
}

}  // namespace

EventSimulator::EventSimulator(
    AsyncConfig config, std::vector<std::unique_ptr<AsyncProcess>> processes)
    : config_(checked(config)),
      rng_(config.seed),
      processes_(std::move(processes)),
      skip_start_(processes_.size(), false),
      crash_at_(processes_.size()),
      window_(ring_width(config_, kMaxWindow)),
      ring_(static_cast<std::size_t>(window_)) {}

void EventSimulator::corrupt_state(ProcessId p, const Value& state,
                                   bool skip_start) {
  if (started_) throw std::logic_error("corruption must precede execution");
  processes_.at(p)->restore_state(state);
  skip_start_.at(p) = skip_start;
}

void EventSimulator::schedule_crash(ProcessId p, Time t) {
  if (started_) throw std::logic_error("crashes must be scheduled up front");
  crash_at_.at(p) = t;
}

void EventSimulator::set_delay_policy(DelayPolicy policy) {
  if (started_) throw std::logic_error("delay policy must precede execution");
  delay_policy_ = std::move(policy);
}

bool EventSimulator::crashed(ProcessId p) const {
  return crash_at_[p] && now_ >= *crash_at_[p];
}

std::vector<bool> EventSimulator::crashed_by_now() const {
  std::vector<bool> out(processes_.size());
  for (int p = 0; p < process_count(); ++p) out[p] = crashed(p);
  return out;
}

void EventSimulator::enqueue_message(ProcessId from, ProcessId to,
                                     Value payload) {
  Time delay;
  if (delay_policy_) {
    delay = delay_policy_(from, to, now_);
    if (delay < 0) {
      throw std::logic_error("EventSimulator: negative policy delay");
    }
  } else {
    const Time max_delay =
        now_ < config_.gst ? config_.max_delay_pre_gst : config_.max_delay;
    delay = rng_.uniform(config_.min_delay, max_delay);
  }
  ++messages_sent_;
  push(now_ + delay, Event{Event::Kind::kMessage, to, from, std::move(payload)});
}

void EventSimulator::push(Time at, Event ev) {
  if (at - now_ < window_) {
    slot(at).push_back(std::move(ev));
    set_occupied(at, true);
    ++ring_pending_;
  } else {
    late_[at].push_back(std::move(ev));
    ++late_pending_;
  }
}

void EventSimulator::advance_to(Time t) {
  now_ = t;
  while (!late_.empty() && late_.begin()->first - now_ < window_) {
    const auto bucket = late_.begin();
    // Nothing due at this time can be in the ring yet, so its slot is empty.
    std::vector<Event>& into = slot(bucket->first);
    into.swap(bucket->second);
    set_occupied(bucket->first, true);
    ring_pending_ += into.size();
    late_pending_ -= into.size();
    late_.erase(bucket);
  }
}

void EventSimulator::ensure_started() {
  if (started_) return;
  started_ = true;
  for (ProcessId p = 0; p < process_count(); ++p) {
    ContextImpl ctx(this, p);
    if (!skip_start_[p] && !(crash_at_[p] && *crash_at_[p] <= 0)) {
      processes_[p]->on_start(ctx);
    }
    // First tick staggered per process for determinism without lock-step.
    push(config_.tick_interval + p % config_.tick_interval,
         Event{Event::Kind::kTick, p, p, Value()});
  }
}

void EventSimulator::run_until(Time until) {
  if (until < now_) {
    throw std::logic_error("EventSimulator::run_until: time runs backwards");
  }
  ensure_started();
  for (;;) {
    // Handlers may append to this slot (a delay-0 send), so walk it by
    // index; slot_next_ keeps the place if a handler throws.
    std::vector<Event>& due = slot(now_);
    while (slot_next_ < due.size()) {
      Event ev = std::move(due[slot_next_++]);
      --ring_pending_;
      dispatch(ev);
    }
    due.clear();
    set_occupied(now_, false);
    slot_next_ = 0;
    if (now_ == until) return;
    if (ring_pending_ > 0) {
      advance_to(std::min(until, next_occupied()));
    } else {
      advance_to(late_.empty() ? until : std::min(until, late_.begin()->first));
    }
  }
}

Time EventSimulator::next_occupied() const {
  // Scan the words from now's slot on, wrapping once; now's own slot is
  // empty, so the first set bit is the next occupied slot.
  const std::size_t words = static_cast<std::size_t>(window_ + 63) / 64;
  const std::size_t from = slot_index(now_ + 1);
  for (std::size_t k = 0; k <= words; ++k) {
    const std::size_t w = (from / 64 + k) % words;
    std::uint64_t bits = occupied_[w];
    if (k == 0) bits &= ~std::uint64_t{0} << (from % 64);
    if (bits != 0) {
      const Time at = static_cast<Time>(w * 64 + std::countr_zero(bits));
      return now_ + ((at - now_) & (window_ - 1));
    }
  }
  return now_ + window_;  // unreachable while ring_pending_ > 0
}

void EventSimulator::dispatch(const Event& ev) {
  if (crash_at_[ev.target] && now_ >= *crash_at_[ev.target]) {
    return;  // crashed processes receive nothing and never tick again
  }
  ContextImpl ctx(this, ev.target);
  if (ev.kind == Event::Kind::kTick) {
    processes_[ev.target]->on_tick(ctx);
    push(now_ + config_.tick_interval,
         Event{Event::Kind::kTick, ev.target, ev.target, Value()});
  } else {
    ++messages_delivered_;
    processes_[ev.target]->on_message(ctx, ev.from, ev.payload);
  }
}

}  // namespace ftss
