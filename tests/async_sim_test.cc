// Unit tests for the asynchronous discrete-event simulator.
#include "async/event_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ftss {
namespace {

// Probe: counts ticks, echoes messages, records deliveries.
class Probe : public AsyncProcess {
 public:
  void on_start(AsyncContext& ctx) override {
    started_ = true;
    ctx.broadcast(Value("hello"));
  }
  void on_tick(AsyncContext&) override { ++ticks_; }
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override {
    deliveries_.emplace_back(ctx.now(), from, payload);
  }
  Value snapshot_state() const override {
    Value v;
    v["ticks"] = Value(ticks_);
    return v;
  }
  void restore_state(const Value& state) override {
    ticks_ = state.at("ticks").int_or(0);
  }

  bool started_ = false;
  std::int64_t ticks_ = 0;
  std::vector<std::tuple<Time, ProcessId, Value>> deliveries_;
};

std::vector<std::unique_ptr<AsyncProcess>> probes(int n) {
  std::vector<std::unique_ptr<AsyncProcess>> v;
  for (int i = 0; i < n; ++i) v.push_back(std::make_unique<Probe>());
  return v;
}

Probe& probe(EventSimulator& sim, ProcessId p) {
  return dynamic_cast<Probe&>(sim.process(p));
}

TEST(EventSimulator, StartRunsAndMessagesArriveWithinDelayBounds) {
  AsyncConfig config{.seed = 1, .min_delay = 2, .max_delay = 9};
  EventSimulator sim(config, probes(3));
  sim.run_until(100);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(probe(sim, p).started_);
    // 3 broadcasts x 3 destinations: every probe hears 3 hellos.
    ASSERT_EQ(probe(sim, p).deliveries_.size(), 3u);
    for (const auto& [t, from, payload] : probe(sim, p).deliveries_) {
      EXPECT_GE(t, 2);
      EXPECT_LE(t, 9);
      EXPECT_EQ(payload, Value("hello"));
    }
  }
}

TEST(EventSimulator, TicksFireAtConfiguredCadence) {
  AsyncConfig config{.seed = 1, .tick_interval = 10};
  EventSimulator sim(config, probes(2));
  sim.run_until(105);
  EXPECT_GE(probe(sim, 0).ticks_, 9);
  EXPECT_LE(probe(sim, 0).ticks_, 11);
}

TEST(EventSimulator, CrashedProcessStopsReceivingAndTicking) {
  AsyncConfig config{.seed = 1, .tick_interval = 10};
  EventSimulator sim(config, probes(2));
  sim.schedule_crash(1, 50);
  sim.run_until(500);
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_FALSE(sim.crashed(0));
  EXPECT_LE(probe(sim, 1).ticks_, 5);
  EXPECT_GE(probe(sim, 0).ticks_, 45);
}

TEST(EventSimulator, CrashAtTimeZeroSkipsStart) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  sim.schedule_crash(0, 0);
  sim.run_until(50);
  EXPECT_FALSE(probe(sim, 0).started_);
  // Only process 1's broadcast is ever sent (2 copies, one per process).
  EXPECT_EQ(probe(sim, 1).deliveries_.size(), 1u);
}

TEST(EventSimulator, CorruptStateSkipsStartByDefault) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  Value garbage;
  garbage["ticks"] = Value(1000);
  sim.corrupt_state(0, garbage);
  sim.run_until(25);
  EXPECT_FALSE(probe(sim, 0).started_);
  EXPECT_GE(probe(sim, 0).ticks_, 1000 + 1);  // restored state + live ticks
  EXPECT_TRUE(probe(sim, 1).started_);
}

TEST(EventSimulator, CorruptStateCanKeepStart) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  sim.corrupt_state(0, Value(), /*skip_start=*/false);
  sim.run_until(25);
  EXPECT_TRUE(probe(sim, 0).started_);
}

TEST(EventSimulator, PreGstDelaysAreLonger) {
  AsyncConfig config{.seed = 3,
                     .min_delay = 1,
                     .max_delay = 5,
                     .max_delay_pre_gst = 500,
                     .gst = 1000};
  EventSimulator sim(config, probes(2));
  sim.run_until(2000);
  // The on_start hellos were sent at time 0 (pre-GST): delays may exceed 5.
  Time max_seen = 0;
  for (const auto& [t, from, payload] : probe(sim, 0).deliveries_) {
    max_seen = std::max(max_seen, t);
  }
  EXPECT_GT(max_seen, 5);
  EXPECT_LE(max_seen, 500);
}

TEST(EventSimulator, DeterministicUnderSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    AsyncConfig config{.seed = seed};
    EventSimulator sim(config, probes(4));
    sim.run_until(300);
    std::vector<Time> times;
    for (ProcessId p = 0; p < 4; ++p) {
      for (const auto& [t, from, payload] :
           dynamic_cast<Probe&>(sim.process(p)).deliveries_) {
        times.push_back(t);
      }
    }
    return times;
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

TEST(EventSimulator, ConfigurationAfterStartRejected) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  sim.run_until(10);
  EXPECT_THROW(sim.corrupt_state(0, Value()), std::logic_error);
  EXPECT_THROW(sim.schedule_crash(0, 50), std::logic_error);
}

TEST(EventSimulator, MessageCountersTrackTraffic) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  sim.run_until(50);
  EXPECT_EQ(sim.messages_sent(), 4);  // two broadcasts of two copies each
  EXPECT_EQ(sim.messages_delivered(), 4);
}

TEST(EventSimulator, PendingEventsCountsInFlightMessagesAndTicks) {
  // The time-0 hellos are due at 20..30; the first ticks at 100 and 101.
  EventSimulator sim(AsyncConfig{.seed = 1,
                                 .tick_interval = 100,
                                 .min_delay = 20,
                                 .max_delay = 30},
                     probes(2));
  sim.run_until(10);
  EXPECT_EQ(sim.pending_events(), 4u + 2u);  // 2 broadcasts x 2, 2 ticks
  sim.run_until(50);
  EXPECT_EQ(sim.pending_events(), 2u);  // only the ticks
  sim.run_until(150);
  EXPECT_EQ(sim.pending_events(), 2u);  // each tick queued its successor
}

TEST(EventSimulator, CrashLosesUndeliveredMessages) {
  EventSimulator sim(AsyncConfig{.seed = 1, .min_delay = 20, .max_delay = 30},
                     probes(2));
  sim.schedule_crash(1, 10);  // crash before the time-0 hellos can arrive
  sim.run_until(100);
  EXPECT_EQ(probe(sim, 1).deliveries_.size(), 0u);
  EXPECT_LT(sim.messages_delivered(), sim.messages_sent());
}

TEST(EventSimulator, BadDestinationThrows) {
  class Bad : public AsyncProcess {
    void on_start(AsyncContext& ctx) override { ctx.send(99, Value()); }
    void on_message(AsyncContext&, ProcessId, const Value&) override {}
    Value snapshot_state() const override { return Value(); }
    void restore_state(const Value&) override {}
  };
  std::vector<std::unique_ptr<AsyncProcess>> v;
  v.push_back(std::make_unique<Bad>());
  EventSimulator sim(AsyncConfig{}, std::move(v));
  EXPECT_THROW(sim.run_until(10), std::out_of_range);
}

TEST(EventSimulator, RunUntilAdvancesClockEvenWithoutEvents) {
  EventSimulator sim(AsyncConfig{}, probes(1));
  sim.run_until(5);
  EXPECT_EQ(sim.now(), 5);
  sim.run_until(123);
  EXPECT_EQ(sim.now(), 123);
}

TEST(EventSimulator, SameTimeEventsDispatchInSendOrder) {
  // Every message sent before t=5 is due at exactly t=5, and a send made at
  // t=5 is due at once.  Events due at one time dispatch in the order they
  // were sent, and a delay-0 send made by a handler runs after every event
  // already due at that time.
  struct Delivery {
    Time at;
    ProcessId to;
    ProcessId from;
    Value payload;
    bool operator==(const Delivery&) const = default;
  };
  class Sender : public AsyncProcess {
   public:
    explicit Sender(std::vector<Delivery>* log) : log_(log) {}
    void on_start(AsyncContext& ctx) override {
      // Highest id first, so send order is not id order.
      for (ProcessId q = ctx.process_count() - 1; q >= 0; --q) {
        ctx.send(q, Value(ctx.self() * 10 + q));
      }
    }
    void on_message(AsyncContext& ctx, ProcessId from,
                    const Value& payload) override {
      log_->push_back({ctx.now(), ctx.self(), from, payload});
      if (payload == Value(1)) ctx.send(0, Value("echo"));
    }
    Value snapshot_state() const override { return Value(); }
    void restore_state(const Value&) override {}

   private:
    std::vector<Delivery>* log_;
  };
  std::vector<Delivery> log;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(std::make_unique<Sender>(&log));
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 100},
                     std::move(procs));
  sim.set_delay_policy(
      [](ProcessId, ProcessId, Time now) { return now < 5 ? 5 - now : 0; });
  sim.run_until(50);
  const std::vector<Delivery> want = {
      {5, 2, 0, Value(2)},  {5, 1, 0, Value(1)},  {5, 0, 0, Value(0)},
      {5, 2, 1, Value(12)}, {5, 1, 1, Value(11)}, {5, 0, 1, Value(10)},
      {5, 2, 2, Value(22)}, {5, 1, 2, Value(21)}, {5, 0, 2, Value(20)},
      {5, 0, 1, Value("echo")},
  };
  EXPECT_EQ(log, want);
}

// Logs every delivery as (due time, payload); sends come from the hooks a
// test installs.  The edge tests below drive the queue through them.
class Courier : public AsyncProcess {
 public:
  using Hook = std::function<void(AsyncContext&)>;
  Courier(std::vector<std::pair<Time, Value>>* log, Hook start, Hook tick)
      : log_(log), start_(std::move(start)), tick_(std::move(tick)) {}
  void on_start(AsyncContext& ctx) override {
    if (start_) start_(ctx);
  }
  void on_tick(AsyncContext& ctx) override {
    if (tick_) tick_(ctx);
  }
  void on_message(AsyncContext& ctx, ProcessId,
                  const Value& payload) override {
    log_->emplace_back(ctx.now(), payload);
    if (payload == Value("boom") && !thrown_) {
      thrown_ = true;
      throw std::runtime_error("handler failed");
    }
  }
  Value snapshot_state() const override { return Value(); }
  void restore_state(const Value&) override {}

 private:
  std::vector<std::pair<Time, Value>>* log_;
  Hook start_;
  Hook tick_;
  bool thrown_ = false;
};

TEST(EventSimulator, FarFutureSendKeepsItsPlaceAmongSameTimeEvents) {
  // p0 sends "far" then "far2" at time 0 with a delay beyond any window the
  // queue keeps close at hand, then "near" at 4990, due at the same instant
  // 5000.  They dispatch in send order, and all count as pending until then.
  std::vector<std::pair<Time, Value>> log;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  procs.push_back(std::make_unique<Courier>(
      &log,
      [](AsyncContext& ctx) {
        ctx.send(1, Value("far"));
        ctx.send(1, Value("far2"));
      },
      [](AsyncContext& ctx) {
        if (ctx.now() == 4990) ctx.send(1, Value("near"));
      }));
  procs.push_back(std::make_unique<Courier>(&log, nullptr, nullptr));
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 10},
                     std::move(procs));
  sim.set_delay_policy(
      [](ProcessId, ProcessId, Time now) { return now == 0 ? 5000 : 10; });
  sim.run_until(100);
  EXPECT_EQ(sim.pending_events(), 2u + 2u);  // the two far sends, two ticks
  sim.run_until(4989);
  EXPECT_EQ(sim.pending_events(), 2u + 2u);
  sim.run_until(4990);
  EXPECT_EQ(sim.pending_events(), 3u + 2u);  // "near" joins them
  sim.run_until(4999);
  EXPECT_EQ(sim.pending_events(), 3u + 2u);
  EXPECT_TRUE(log.empty());
  sim.run_until(5000);
  EXPECT_EQ(sim.pending_events(), 2u);
  const std::vector<std::pair<Time, Value>> want = {
      {5000, Value("far")}, {5000, Value("far2")}, {5000, Value("near")}};
  EXPECT_EQ(log, want);
}

TEST(EventSimulator, HugeTickIntervalRunsInConstantSteps) {
  // Ticks due every 10^12 time units: a run across three of them must jump
  // over the empty stretches instead of visiting each time unit.
  constexpr Time kTick = 1'000'000'000'000;
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = kTick},
                     probes(2));
  sim.run_until(3 * kTick + 5);
  EXPECT_EQ(sim.now(), 3 * kTick + 5);
  EXPECT_EQ(probe(sim, 0).ticks_, 3);
  EXPECT_EQ(probe(sim, 1).ticks_, 3);
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(EventSimulator, ThrowingHandlerResumesAtItsPlace) {
  // p0 sends five messages to p1 at time 0: three due at 5, then one at 7
  // and one at 9.  The second delivery at 5 throws.  run_until rethrows with
  // the clock at 5, and the next run_until picks up where it stopped: the
  // third delivery due at 5 first, then the later ones in order.
  std::vector<std::pair<Time, Value>> log;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  procs.push_back(std::make_unique<Courier>(
      &log,
      [](AsyncContext& ctx) {
        for (const char* word : {"a", "boom", "c", "d", "e"}) {
          ctx.send(1, Value(word));
        }
      },
      nullptr));
  procs.push_back(std::make_unique<Courier>(&log, nullptr, nullptr));
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 100},
                     std::move(procs));
  sim.set_delay_policy(
      [delays = std::vector<Time>{5, 5, 5, 7, 9}, next = std::size_t{0}](
          ProcessId, ProcessId, Time) mutable { return delays.at(next++); });
  EXPECT_THROW(sim.run_until(50), std::runtime_error);
  EXPECT_EQ(sim.now(), 5);
  EXPECT_EQ(sim.pending_events(), 3u + 2u);  // "c", "d", "e" and two ticks
  sim.run_until(50);
  EXPECT_EQ(sim.now(), 50);
  const std::vector<std::pair<Time, Value>> want = {
      {5, Value("a")}, {5, Value("boom")}, {5, Value("c")},
      {7, Value("d")}, {9, Value("e")},
  };
  EXPECT_EQ(log, want);
}

TEST(EventSimulator, WideRingDispatchesSparseEventsInOrder) {
  // A tick interval of 1000 makes the ring 1024 slots wide.  At time 0 p0
  // sends "a" into slot 700 and "c" into slot 1023, and "b" and "d" past the
  // ring, due at 1500 and 3000.  At its tick at 1000 it sends "e" and "f",
  // due at 1040 and 2023, into slots 16 and 999 after the wrap, and p1's
  // tick at 1001 sends "g", due at 1024, into slot 0.  The run stops between
  // events and exactly on due times; every dispatch, ticks included, comes
  // at its due time and in (due time, send order).
  std::vector<std::pair<Time, Value>> log;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  procs.push_back(std::make_unique<Courier>(
      &log,
      [](AsyncContext& ctx) {
        for (const char* word : {"a", "b", "c", "d"}) ctx.send(1, Value(word));
      },
      [&log](AsyncContext& ctx) {
        log.emplace_back(ctx.now(), Value("tick0"));
        if (ctx.now() != 1000) return;
        ctx.send(1, Value("e"));
        ctx.send(1, Value("f"));
      }));
  procs.push_back(std::make_unique<Courier>(
      &log, nullptr, [&log](AsyncContext& ctx) {
        log.emplace_back(ctx.now(), Value("tick1"));
        if (ctx.now() == 1001) ctx.send(0, Value("g"));
      }));
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 1000},
                     std::move(procs));
  sim.set_delay_policy(
      [delays = std::vector<Time>{700, 1500, 1023, 3000, 40, 1023, 23},
       next = std::size_t{0}](ProcessId, ProcessId, Time) mutable {
        return delays.at(next++);
      });
  struct Step {
    Time until;
    std::vector<std::pair<Time, Value>> dispatched;
  };
  const Step steps[] = {
      {699, {}},
      {700, {{700, Value("a")}}},
      {1010, {{1000, Value("tick0")}, {1001, Value("tick1")}}},
      {1023, {{1023, Value("c")}}},
      {1024, {{1024, Value("g")}}},
      {1600, {{1040, Value("e")}, {1500, Value("b")}}},
      {2023,
       {{2000, Value("tick0")}, {2001, Value("tick1")}, {2023, Value("f")}}},
      {3000, {{3000, Value("d")}, {3000, Value("tick0")}}},
      {3500, {{3001, Value("tick1")}}},
  };
  std::vector<std::pair<Time, Value>> want;
  for (const Step& step : steps) {
    sim.run_until(step.until);
    EXPECT_EQ(sim.now(), step.until);
    want.insert(want.end(), step.dispatched.begin(), step.dispatched.end());
    EXPECT_EQ(log, want) << "after run_until(" << step.until << ")";
  }
  EXPECT_EQ(sim.pending_events(), 2u);  // the ticks due at 4000 and 4001
}

TEST(EventSimulator, RejectsMalformedTiming) {
  // A zero tick interval divides by zero when the first ticks are
  // staggered; lo > hi delay ranges draw out of range or into the past.
  EXPECT_THROW(EventSimulator(AsyncConfig{.tick_interval = 0}, probes(2)),
               std::invalid_argument);
  EXPECT_THROW(EventSimulator(AsyncConfig{.tick_interval = -3}, probes(2)),
               std::invalid_argument);
  EXPECT_THROW(
      EventSimulator(AsyncConfig{.min_delay = 30, .max_delay = 5}, probes(2)),
      std::invalid_argument);
  EXPECT_THROW(EventSimulator(AsyncConfig{.min_delay = -1}, probes(2)),
               std::invalid_argument);
  EXPECT_THROW(EventSimulator(AsyncConfig{.min_delay = 30,
                                          .max_delay = 40,
                                          .max_delay_pre_gst = 20,
                                          .gst = 100},
                              probes(2)),
               std::invalid_argument);
  // The pre-GST bound is never drawn when there is no pre-GST period, and
  // a zero minimum delay is a legal (immediate) delivery.
  EXPECT_NO_THROW(EventSimulator(
      AsyncConfig{.min_delay = 30, .max_delay = 40, .max_delay_pre_gst = 20},
      probes(2)));
  EXPECT_NO_THROW(EventSimulator(
      AsyncConfig{.tick_interval = 1, .min_delay = 0, .max_delay = 0},
      probes(2)));
}

TEST(EventSimulator, NegativePolicyDelayIsRejected) {
  EventSimulator sim(AsyncConfig{}, probes(2));
  sim.set_delay_policy([](ProcessId, ProcessId, Time) { return Time{-1}; });
  // The on_start hellos would be due before time 0.
  EXPECT_THROW(sim.run_until(10), std::logic_error);
}

TEST(EventSimulator, RunUntilRejectsThePast) {
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 10}, probes(2));
  sim.schedule_crash(1, 80);
  sim.run_until(100);
  ASSERT_TRUE(sim.crashed(1));
  EXPECT_THROW(sim.run_until(50), std::logic_error);
  // The rejected step changed nothing: the clock and the crash stand.
  EXPECT_EQ(sim.now(), 100);
  EXPECT_TRUE(sim.crashed(1));
  const std::int64_t ticks = probe(sim, 0).ticks_;
  sim.run_until(100);  // a zero-length step is valid and dispatches nothing
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(probe(sim, 0).ticks_, ticks);
}

TEST(EventSimulator, CrashedFlipsExactlyAtTheScheduledTime) {
  // Mirror of SyncSimulator::CrashedAccessorAgreesWithTheRoundLoop: the
  // accessor's boundary (now >= crash_at) must match the event loop's drop
  // condition — alive strictly before the crash time, crashed from it on.
  EventSimulator sim(AsyncConfig{.seed = 1, .tick_interval = 10}, probes(2));
  sim.schedule_crash(1, 50);
  sim.run_until(49);
  EXPECT_FALSE(sim.crashed(1));
  const std::int64_t ticks_before = probe(sim, 1).ticks_;
  sim.run_until(50);
  EXPECT_TRUE(sim.crashed(1));
  sim.run_until(500);
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_FALSE(sim.crashed(0));
  // No further steps once the crash time is reached.
  EXPECT_EQ(probe(sim, 1).ticks_, ticks_before);
}

}  // namespace
}  // namespace ftss
