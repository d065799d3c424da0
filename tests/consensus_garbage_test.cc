// Garbage on the wire for the consensus modules.  CtConsensus and
// RepeatedConsensus read their messages by position (layouts in
// ct_consensus.h and repeated_consensus.h): a body of any other shape,
// including the string-keyed map shapes of earlier versions, must be
// dropped unread, leaving the module's state and sends untouched; seeded
// garbage must never throw; and a run that received it must still decide.
#include <gtest/gtest.h>

#include <vector>

#include "consensus/harness.h"
#include "sim/corrupt.h"
#include "util/rng.h"

namespace ftss {
namespace {

// Stands in for a node: counts what a module sends through it.
class CountingContext : public AsyncContext {
 public:
  CountingContext(ProcessId self, int n, Time now)
      : self_(self), n_(n), now_(now) {}
  Time now() const override { return now_; }
  ProcessId self() const override { return self_; }
  int process_count() const override { return n_; }
  void send(ProcessId, Value) override { ++sends; }
  void broadcast(const Value&) override { ++sends; }

  int sends = 0;

 private:
  ProcessId self_;
  int n_;
  Time now_;
};

// Near misses of every CtConsensus layout (wrong arity, wrong element
// types, unknown tags) and the map shapes earlier versions sent.
std::vector<Value> malformed_ct_bodies() {
  return {
      Value(),
      Value(1),
      Value("E"),
      Value(Value::Array{}),
      Value::tuple("E"),
      Value::tuple("E", 1, 2),
      Value::tuple("E", 1, 2, 0, 0),
      Value::tuple("E", "1", 2, 0),
      Value::tuple("E", 1, 2, true),
      Value::tuple("C", 1),
      Value::tuple("C", false, 2),
      Value::tuple("C", 1, 2, 3),
      Value::tuple("A", 1, 1),
      Value::tuple("A", 1),
      Value::tuple("A", Value(), true),
      Value::tuple("D"),
      Value::tuple("D", 1, 2),
      Value::tuple("R"),
      Value::tuple("R", "9"),
      Value::tuple("R", 9, 9),
      Value::tuple("X", 9),
      Value::tuple("EE", 1, 2, 0),
      Value::tuple("", 9),
      Value::tuple(7, 9),
      Value::tuple(Value::tuple("D"), 4),
      Value::map({{"t", Value("E")}, {"r", Value(9)}, {"est", Value(5)},
                  {"ts", Value(0)}}),
      Value::map({{"t", Value("D")}, {"est", Value(5)}}),
      Value::map({{"t", Value("R")}, {"r", Value(9)}}),
      Value::map({{"mod", Value("cons")},
                  {"body", Value::map({{"t", Value("D")}, {"est", Value(5)}})}}),
  };
}

// A seeded malformed CtConsensus body: random_value (its strings are
// lower case, so never a tag), an old map shape with random fields, or a
// valid tag with the wrong arity or a wrongly typed integer slot.
Value seeded_malformed_ct_body(Rng& rng) {
  static const char* const kTags[] = {"E", "C", "A", "D", "R"};
  static const std::size_t kArity[] = {4, 3, 3, 2, 2};
  switch (rng.uniform(0, 2)) {
    case 0:
      return random_value(rng, 50);
    case 1:
      return Value::map({{"t", Value(kTags[rng.uniform(0, 4)])},
                         {"r", random_value(rng, 50)},
                         {"est", random_value(rng, 50)},
                         {"ts", random_value(rng, 50)}});
    default: {
      const auto which = static_cast<std::size_t>(rng.uniform(0, 4));
      Value::Array m{Value(kTags[which])};
      const bool wrong_arity = which == 3 || rng.chance(0.5);
      std::size_t arity = kArity[which];
      if (wrong_arity) {
        arity = rng.chance(0.5)
                    ? arity - 1
                    : arity + 1 + static_cast<std::size_t>(rng.uniform(0, 2));
      }
      while (m.size() < arity) m.push_back(Value(rng.uniform(-50, 50)));
      // Slot 1 is the round of every layout but "D"'s: make it a string.
      if (!wrong_arity) m[1] = Value("r");
      return Value(std::move(m));
    }
  }
}

TEST(CtGarbage, MalformedBodiesDroppedUnread) {
  for (const auto options :
       {StabilizationOptions::baseline(), StabilizationOptions::ftss()}) {
    CountingContext ctx(0, 3, 50);
    const Value channel("cons");
    ModuleContext mctx(ctx, channel);
    CtConsensus cons(0, 3, Value(100), nullptr, options);
    cons.on_start(mctx);
    std::vector<Value> bodies = malformed_ct_bodies();
    Rng rng(17);
    for (int i = 0; i < 500; ++i) bodies.push_back(seeded_malformed_ct_body(rng));
    const Value before = cons.snapshot();
    const int sends = ctx.sends;
    for (const Value& body : bodies) {
      EXPECT_NO_THROW(cons.on_message(mctx, 1, body)) << body;
      EXPECT_EQ(cons.snapshot(), before) << body;
      EXPECT_EQ(ctx.sends, sends) << body;
    }
    // The well-formed shapes still act: a round gossip moves the FTSS
    // process up, and a decision decides.
    cons.on_message(mctx, 1, Value::tuple("R", 9));
    EXPECT_EQ(cons.round(), options.gossip_round ? 9 : 0);
    cons.on_message(mctx, 1, Value::tuple("D", 4));
    EXPECT_TRUE(cons.decided());
    EXPECT_EQ(cons.decision(), Value(4));
  }
}

// Feeds every live process's "cons" channel seeded malformed bodies every
// 20 ticks up to t=2000.  Being dropped unread, they leave the run
// identical to the same run without them, which still decides.
TEST(CtGarbage, SeededGarbageLeavesTheRunUnchanged) {
  for (const auto options :
       {StabilizationOptions::baseline(), StabilizationOptions::ftss()}) {
    for (const int n : {3, 5}) {
      ConsensusSystemConfig config;
      config.n = n;
      config.async.seed = 23 + static_cast<std::uint64_t>(n);
      config.stabilization = options;
      for (int p = 0; p < n; ++p) config.inputs.push_back(Value(10 * p));

      auto clean = build_consensus_system(config);
      clean->run_until(8000);

      auto sim = build_consensus_system(config);
      Rng rng(config.async.seed);
      int sends = 0;
      for (Time t = 20; t <= 2000; t += 20) {
        sim->run_until(t);
        for (ProcessId p = 0; p < n; ++p) {
          CountingContext ctx(p, n, t);
          for (int i = 0; i < 3; ++i) {
            const Value body = seeded_malformed_ct_body(rng);
            EXPECT_NO_THROW(sim->process(p).on_message(
                ctx, static_cast<ProcessId>(rng.uniform(0, n - 1)),
                Value::tuple("cons", body)))
                << body;
          }
          sends += ctx.sends;
        }
      }
      sim->run_until(8000);

      EXPECT_EQ(sends, 0);
      const ConsensusOutcome outcome = evaluate_consensus(*sim, config.inputs);
      EXPECT_TRUE(outcome.all_correct_decided) << "n=" << n;
      EXPECT_TRUE(outcome.agreement) << "n=" << n;
      EXPECT_TRUE(outcome.validity) << "n=" << n;
      for (ProcessId p = 0; p < n; ++p) {
        EXPECT_EQ(sim->process(p).snapshot_state(),
                  clean->process(p).snapshot_state())
            << "n=" << n << " p=" << p;
        EXPECT_EQ(consensus_view(*sim, p)->decision_time().value_or(-1),
                  consensus_view(*clean, p)->decision_time().value_or(-1));
      }
      EXPECT_EQ(sim->messages_sent(), clean->messages_sent());
    }
  }
}

Value int_input(ProcessId p, std::int64_t k) { return Value(1000 * k + p); }

TEST(RepeatedGarbage, MalformedBodiesDroppedUnread) {
  RepeatedConsensus rcons(0, 3, int_input, nullptr);
  rcons.restore(Value::map({{"k", Value(5)}, {"inner", Value()}}));
  CountingContext ctx(0, 3, 50);
  const Value channel("rcons");
  ModuleContext mctx(ctx, channel);
  std::vector<Value> bodies = {
      Value(),
      Value(5),
      Value(Value::Array{}),
      Value::tuple(5),
      Value::tuple(2, Value::tuple("D", 7), 0),
      Value::tuple("2", Value::tuple("D", 7)),
      Value::tuple(true, Value::tuple("D", 7)),
      Value::tuple(Value(), Value::tuple("D", 7)),
      // Old instances whose body is no well-formed decision.
      Value::tuple(2, Value::tuple("D")),
      Value::tuple(2, Value::tuple("E", 1, 7, 0)),
      Value::tuple(2, Value::map({{"t", Value("D")}, {"est", Value(7)}})),
      // The map shapes earlier versions sent.
      Value::map({{"k", Value(2)},
                  {"b", Value::map({{"mod", Value("cons")},
                                    {"body", Value::map({{"t", Value("D")},
                                                         {"est", Value(7)}})}})}}),
      Value::map({{"k", Value(9)}, {"b", Value::tuple("R", 3)}}),
  };
  // The current instance's messages go to CtConsensus, which drops
  // malformed ones.
  for (const Value& body : malformed_ct_bodies()) {
    bodies.push_back(Value::tuple(5, body));
  }
  Rng rng(29);
  for (int i = 0; i < 300; ++i) {
    bodies.push_back(Value::tuple(5, seeded_malformed_ct_body(rng)));
    bodies.push_back(Value::tuple(static_cast<std::int64_t>(rng.uniform(0, 4)),
                                  seeded_malformed_ct_body(rng)));
  }
  const Value before = rcons.snapshot();
  for (const Value& body : bodies) {
    EXPECT_NO_THROW(rcons.on_message(mctx, 1, body)) << body;
    EXPECT_EQ(rcons.snapshot(), before) << body;
    EXPECT_TRUE(rcons.decisions().empty()) << body;
    EXPECT_EQ(ctx.sends, 0) << body;
  }
  // A well-formed old-instance decision is logged as learned.
  rcons.on_message(mctx, 1, Value::tuple(2, Value::tuple("D", 7)));
  ASSERT_EQ(rcons.decisions().size(), 1u);
  ASSERT_TRUE(rcons.decision_of(2).has_value());
  EXPECT_EQ(*rcons.decision_of(2), Value(7));
  EXPECT_FALSE(rcons.decisions()[0].decided_locally);
}

// Seeded garbage on every live process's "rcons" channel up to t=3000,
// random_value bodies included: an [int, anything] among them is a
// well-formed instance tag and may pull a process to a higher instance,
// like a corrupted instance counter.  The stream must still settle into
// agreed, fully decided instances afterwards.
TEST(RepeatedGarbage, SeededGarbageRunStillDecides) {
  for (const int n : {3, 5}) {
    ConsensusSystemConfig config;
    config.n = n;
    config.async.seed = 31 + static_cast<std::uint64_t>(n);
    auto sim = build_repeated_consensus_system(config, int_input);
    Rng rng(config.async.seed);
    for (Time t = 20; t <= 3000; t += 20) {
      sim->run_until(t);
      for (ProcessId p = 0; p < n; ++p) {
        CountingContext ctx(p, n, t);
        for (int i = 0; i < 3; ++i) {
          Value body;
          switch (rng.uniform(0, 2)) {
            case 0:
              body = random_value(rng, 50);
              break;
            case 1:
              body = Value::map({{"k", random_value(rng, 50)},
                                 {"b", random_value(rng, 50)}});
              break;
            default:
              body = Value::tuple(repeated_view(*sim, p)->instance(),
                                  seeded_malformed_ct_body(rng));
          }
          EXPECT_NO_THROW(sim->process(p).on_message(
              ctx, static_cast<ProcessId>(rng.uniform(0, n - 1)),
              Value::tuple("rcons", body)))
              << body;
        }
      }
    }
    sim->run_until(20000);
    const auto analysis =
        analyze_repeated_async(*sim, int_input, sim->now() - 2000);
    for (const auto& instance : analysis.instances) {
      EXPECT_TRUE(instance.agreement) << "n=" << n << " k=" << instance.instance;
    }
    ASSERT_TRUE(analysis.clean_from(n).has_value()) << "n=" << n;
    EXPECT_GE(analysis.clean_count(n), 5) << "n=" << n;
  }
}

}  // namespace
}  // namespace ftss
