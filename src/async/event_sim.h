// Discrete-event simulator for the asynchronous model of §3.
//
// Processes communicate over reliable but arbitrarily-slow channels; there
// is no global round structure.  An optional Global Stabilization Time (GST)
// bounds message delays from some point on — the standard partial-synchrony
// device that makes an Eventually Weak Failure Detector implementable
// (without it, ◇-accuracy cannot be realized and the detector remains an
// oracle).  Fault model: crash failures and systemic failures (arbitrary
// initial states, optionally skipping protocol initialization to model a
// system that "commences execution" mid-flight).
//
// Determinism: every run is a pure function of the config seed; events
// dispatch in (due time, send order).  The queue is a ring of W FIFO slots
// plus an ordered overflow map.  W is fixed at construction: the smallest
// power of two above the tick interval and every delay bound the config can
// draw, capped at 4096.
//   - Invariant: every pending event due at t in [now, now + W) sits in
//     slot t mod W, in send order, so a slot holds one due time.  Every
//     later event waits in the overflow map's bucket for its due time.
//   - A send appends to its slot, or to its overflow bucket when it is due
//     W or more time units ahead (a delay policy's long delay, or a config
//     above the cap).
//   - Whenever the clock advances, the overflow buckets that enter the
//     window move into their slots, in time order, before anything
//     dispatches at the new time.  Those events were sent before anything
//     that can still be pushed straight into their slots, so send order
//     holds within each due time.
//   - Dispatch walks the slot of now by index and moves each event out, so
//     a delay-0 send made by a handler lands at the end of the slot being
//     walked.  One occupancy bit per slot marks the slots that hold events.
//     The clock then jumps to the due time of the first occupied slot after
//     now's, or, with the ring empty, to the first overflow time, and never
//     past the end of the run.  No overflow event is due before now + W, so
//     none can fall due before that slot.  A stretch of empty slots costs
//     one bit scan per 64 slots, not one step per time unit.
// That needs nothing to fall due before now, hence the timing rules on
// AsyncConfig.
//
// Ticks: each live process receives an unconditional periodic on_tick.  This
// models the "when true:" guarded commands of Figure 4 — a self-stabilizing
// process must have a source of activity that does not depend on its
// (corruptible) state, otherwise a corrupted process with no pending events
// could remain silent forever.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/types.h"
#include "util/rng.h"

namespace ftss {

using Time = std::int64_t;

class AsyncContext {
 public:
  virtual ~AsyncContext() = default;
  virtual Time now() const = 0;
  virtual ProcessId self() const = 0;
  virtual int process_count() const = 0;
  // Reliable asynchronous unicast/broadcast (broadcast includes self).
  virtual void send(ProcessId to, Value payload) = 0;
  virtual void broadcast(const Value& payload) = 0;
};

class AsyncProcess {
 public:
  virtual ~AsyncProcess() = default;

  // Protocol-specified initialization, run at time 0.  A systemic failure
  // may cause it to be SKIPPED (the process commences in an arbitrary state
  // instead) — self-stabilizing protocols must not rely on it.
  virtual void on_start(AsyncContext& ctx) { (void)ctx; }

  // Unconditional periodic activation (see header comment).
  virtual void on_tick(AsyncContext& ctx) { (void)ctx; }

  virtual void on_message(AsyncContext& ctx, ProcessId from,
                          const Value& payload) = 0;

  virtual Value snapshot_state() const = 0;
  virtual void restore_state(const Value& state) = 0;
};

struct AsyncConfig {
  std::uint64_t seed = 1;
  Time tick_interval = 10;

  // Message delay model: uniform in [min_delay, max_delay_pre_gst] for
  // messages sent before gst, uniform in [min_delay, max_delay] afterwards.
  // The simulator's constructor throws std::invalid_argument unless
  // tick_interval >= 1, 0 <= min_delay <= max_delay, and (when gst > 0)
  // min_delay <= max_delay_pre_gst.
  Time min_delay = 1;
  Time max_delay = 20;
  Time max_delay_pre_gst = 200;
  Time gst = 0;
};

class EventSimulator {
 public:
  EventSimulator(AsyncConfig config,
                 std::vector<std::unique_ptr<AsyncProcess>> processes);

  int process_count() const { return static_cast<int>(processes_.size()); }

  // Systemic failure: replace p's initial state; if skip_start (the default,
  // matching the model: execution commences in an arbitrary state), p's
  // on_start is not invoked.  Must precede run().
  void corrupt_state(ProcessId p, const Value& state, bool skip_start = true);

  // Crash p at time t (no events delivered to it at or after t).
  void schedule_crash(ProcessId p, Time t);

  // Deterministic delay override: when set, every message delay is
  // policy(from, to, now) instead of a random draw (and the RNG is not
  // consumed).  Used by harnesses — notably the conformance lock-step
  // driver — that need exact, externally-resolved delivery times.  Must be
  // set before the first run_until.  A negative delay would deliver in the
  // past: the send throws std::logic_error.
  using DelayPolicy = std::function<Time(ProcessId from, ProcessId to, Time now)>;
  void set_delay_policy(DelayPolicy policy);

  // Advance simulated time, dispatching all events with time <= until.
  // Time never runs backwards: `until` below now() throws std::logic_error
  // (run_until(now()) is a valid no-op step).  A handler's exception
  // propagates with now() at its event's due time; the next run_until
  // resumes with the event after it.
  void run_until(Time until);

  Time now() const { return now_; }
  bool crashed(ProcessId p) const;
  std::vector<bool> crashed_by_now() const;
  AsyncProcess& process(ProcessId p) { return *processes_.at(p); }
  const AsyncProcess& process(ProcessId p) const { return *processes_.at(p); }

  // Counters for overhead reporting.
  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t messages_delivered() const { return messages_delivered_; }
  // Events (messages + ticks) still queued — after run_until(T) these are
  // the in-flight messages scheduled past T plus the pending ticks.
  std::size_t pending_events() const { return ring_pending_ + late_pending_; }

 private:
  struct Event {
    enum class Kind { kMessage, kTick } kind = Kind::kMessage;
    ProcessId target = -1;
    ProcessId from = -1;
    Value payload;
  };

  class ContextImpl;

  void ensure_started();
  void enqueue_message(ProcessId from, ProcessId to, Value payload);
  void push(Time at, Event ev);
  void advance_to(Time t);
  Time next_occupied() const;
  void dispatch(const Event& ev);
  std::size_t slot_index(Time t) const {
    return static_cast<std::size_t>(t & (window_ - 1));
  }
  std::vector<Event>& slot(Time t) { return ring_[slot_index(t)]; }
  void set_occupied(Time t, bool on) {
    const std::size_t i = slot_index(t);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    occupied_[i / 64] = on ? occupied_[i / 64] | bit : occupied_[i / 64] & ~bit;
  }

  AsyncConfig config_;
  Rng rng_;
  DelayPolicy delay_policy_;
  std::vector<std::unique_ptr<AsyncProcess>> processes_;
  std::vector<bool> skip_start_;
  std::vector<std::optional<Time>> crash_at_;
  // Pending events (header comment): the ring of W = window_ slots for the
  // next W time units, one occupancy bit per slot, and the overflow map for
  // everything later.
  static constexpr Time kMaxWindow = 4096;
  Time window_;
  std::vector<std::vector<Event>> ring_;
  std::array<std::uint64_t, kMaxWindow / 64> occupied_{};
  std::map<Time, std::vector<Event>> late_;
  std::size_t slot_next_ = 0;  // next event to dispatch in slot(now_)
  std::size_t ring_pending_ = 0;
  std::size_t late_pending_ = 0;
  Time now_ = 0;
  std::int64_t messages_sent_ = 0;
  std::int64_t messages_delivered_ = 0;
  bool started_ = false;
};

}  // namespace ftss
