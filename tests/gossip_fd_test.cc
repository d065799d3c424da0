// Theorem 5: the Figure 4 transformation yields an Eventually Strong
// Failure Detector from an Eventually Weak one, tolerating process AND
// systemic failures (no initialization required).
#include "detect/gossip_fd.h"

#include <gtest/gtest.h>

#include "detect/heartbeat_fd.h"
#include "util/rng.h"

namespace ftss {
namespace {

// Full node stack: heartbeat + (weakened) Figure 4 gossip detector.
std::vector<std::unique_ptr<AsyncProcess>> stack(int n, bool weaken,
                                                 HeartbeatFdConfig hb_config = {}) {
  std::vector<std::unique_ptr<AsyncProcess>> v;
  for (ProcessId p = 0; p < n; ++p) {
    auto hb = std::make_unique<HeartbeatFd>(p, n, hb_config);
    WeakDetect detect =
        weaken ? weak_view(hb.get(), p, n) : full_view(hb.get());
    auto gfd = std::make_unique<GossipStrongFd>(p, n, std::move(detect));
    std::vector<std::unique_ptr<Module>> mods;
    mods.push_back(std::move(hb));
    mods.push_back(std::move(gfd));
    v.push_back(std::make_unique<ModuleHost>(std::move(mods)));
  }
  return v;
}

const GossipStrongFd& gfd(const EventSimulator& sim, ProcessId p) {
  return *dynamic_cast<const ModuleHost&>(sim.process(p))
              .find<GossipStrongFd>("gfd");
}

TEST(GossipFd, AllAliveWhenNoFailures) {
  EventSimulator sim(AsyncConfig{.seed = 1}, stack(3, /*weaken=*/true));
  sim.run_until(3000);
  for (ProcessId p = 0; p < 3; ++p) {
    for (ProcessId s = 0; s < 3; ++s) {
      EXPECT_FALSE(gfd(sim, p).suspects(s)) << p << "/" << s;
    }
  }
}

TEST(GossipFd, StrongCompletenessFromWeakInput) {
  // Only process 3's witness (process 0) ever locally detects the crash;
  // the gossip must spread the suspicion to ALL correct processes — that is
  // exactly the ◇W → ◇S upgrade.
  const int n = 4;
  EventSimulator sim(AsyncConfig{.seed = 2}, stack(n, /*weaken=*/true));
  sim.schedule_crash(3, 500);
  sim.run_until(8000);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(gfd(sim, p).suspects(3)) << "process " << p;
  }
}

TEST(GossipFd, EventualWeakAccuracy) {
  const int n = 4;
  EventSimulator sim(AsyncConfig{.seed = 3}, stack(n, /*weaken=*/true));
  sim.schedule_crash(2, 400);
  sim.run_until(10000);
  // Every correct process trusts every correct process.
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 2) continue;
    for (ProcessId s = 0; s < n; ++s) {
      if (s == 2) continue;
      EXPECT_FALSE(gfd(sim, p).suspects(s)) << p << "/" << s;
    }
  }
}

TEST(GossipFd, NumsIncreaseMonotonically) {
  EventSimulator sim(AsyncConfig{.seed = 4}, stack(2, /*weaken=*/false));
  sim.run_until(500);
  auto n0 = gfd(sim, 0).num(0);
  sim.run_until(1000);
  EXPECT_GT(gfd(sim, 0).num(0), n0);
  // Gossip carries my counter to others.
  EXPECT_GT(gfd(sim, 1).num(0), 0);
}

// --- Theorem 5 under systemic failures --------------------------------------

struct Thm5Param {
  int n;
  std::int64_t magnitude;
  std::uint64_t seed;
  bool weaken;
};

class Theorem5Sweep : public ::testing::TestWithParam<Thm5Param> {};

TEST_P(Theorem5Sweep, SelfStabilizesFromArbitraryDetectorState) {
  const auto param = GetParam();
  Rng rng(param.seed);
  EventSimulator sim(AsyncConfig{.seed = param.seed},
                     stack(param.n, param.weaken));
  // Corrupt EVERY node's gossip state: random nums, everyone believed dead.
  const ProcessId crashed = static_cast<ProcessId>(
      rng.uniform(0, param.n - 1));
  for (ProcessId p = 0; p < param.n; ++p) {
    Value::Array nums, alive;
    for (int s = 0; s < param.n; ++s) {
      nums.push_back(Value(rng.uniform(0, param.magnitude)));
      alive.push_back(Value(rng.chance(0.5)));
    }
    Value state;
    state["gfd"] =
        Value::map({{"num", Value(nums)}, {"alive", Value(alive)}});
    sim.corrupt_state(p, state);
  }
  // One crash — but never the witness of the crashed process (the ◇W
  // weakening makes that witness the only source of detect(s)).
  const ProcessId witness = weak_witness(crashed, param.n);
  (void)witness;
  sim.schedule_crash(crashed, 300);

  // Healing is fast regardless of corruption magnitude: the adopt-then-
  // increment rule jumps straight past the largest corrupted counter.
  sim.run_until(8000);

  for (ProcessId p = 0; p < param.n; ++p) {
    if (p == crashed) continue;
    // Strong completeness: the crashed process is suspected by all correct.
    EXPECT_TRUE(gfd(sim, p).suspects(crashed))
        << "p=" << p << " crashed=" << crashed;
    // Accuracy: every correct process is trusted by all correct.
    for (ProcessId s = 0; s < param.n; ++s) {
      if (s == crashed) continue;
      EXPECT_FALSE(gfd(sim, p).suspects(s)) << p << "/" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem5Sweep,
    ::testing::Values(Thm5Param{3, 100, 1, true}, Thm5Param{3, 1000, 2, true},
                      Thm5Param{5, 100, 3, true}, Thm5Param{5, 1000, 4, true},
                      Thm5Param{5, 10000, 5, true}, Thm5Param{9, 1000, 6, true},
                      Thm5Param{3, 1000, 7, false}, Thm5Param{5, 1000, 8, false},
                      Thm5Param{9, 100, 9, false}, Thm5Param{4, 500, 10, true},
                      Thm5Param{6, 2000, 11, true}, Thm5Param{7, 100, 12, true}),
    [](const ::testing::TestParamInfo<Thm5Param>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_mag" +
             std::to_string(param_info.param.magnitude) + "_seed" +
             std::to_string(param_info.param.seed) +
             (param_info.param.weaken ? "_weak" : "_full");
    });

TEST(GossipFd, HealsCorruptedHugeNumForCorrectTarget) {
  // The adversary writes (num=10^6, dead) for a CORRECT process everywhere;
  // the target adopts the large counter and immediately increments past it,
  // flipping everyone back to alive.
  const int n = 3;
  EventSimulator sim(AsyncConfig{.seed = 20}, stack(n, /*weaken=*/true));
  for (ProcessId p = 0; p < n; ++p) {
    Value::Array nums{Value(1'000'000), Value(0), Value(0)};
    Value::Array alive{Value(false), Value(true), Value(true)};
    Value state;
    state["gfd"] = Value::map({{"num", Value(nums)}, {"alive", Value(alive)}});
    sim.corrupt_state(p, state);
  }
  sim.run_until(4000);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_FALSE(gfd(sim, p).suspects(0)) << "process " << p;
    EXPECT_GT(gfd(sim, p).num(0), 1'000'000);
  }
}

// A minimal context for driving a module outside a simulator.
class FakeAsyncContext : public AsyncContext {
 public:
  Time now() const override { return 0; }
  ProcessId self() const override { return 0; }
  int process_count() const override { return 3; }
  void send(ProcessId, Value) override {}
  void broadcast(const Value&) override {}
};

TEST(GossipFd, ToleratesGarbageWireAndState) {
  GossipStrongFd fd_local(0, 3, nullptr);
  fd_local.restore(Value("garbage"));
  fd_local.restore(Value::map({{"num", Value(7)}, {"alive", Value::Array{}}}));
  FakeAsyncContext fake;
  const Value channel("gfd");
  ModuleContext ctx(fake, channel);
  // Any shape but exactly n (int, bool) pairs is dropped unread: the map
  // shape of earlier versions, non-arrays, odd lengths, more or fewer than
  // n pairs.  Each would mark target 1 dead with a higher num if read.
  const std::vector<Value> dropped = {
      Value::map({{"e", Value::array({Value::array(
                            {Value(1), Value(99), Value(false)})})}}),
      Value("not even an array"),
      Value(Value::Array{}),
      Value::tuple(0, true, 99, false, 0),
      Value::tuple(0, true, 99, false),
      Value::tuple(0, true, 99, false, 0, true, 0, true),
  };
  for (const Value& body : dropped) {
    fd_local.on_message(ctx, 1, body);
    EXPECT_EQ(fd_local.num(1), 0) << body;
    EXPECT_FALSE(fd_local.suspects(1)) << body;
  }
  // In a well-formed message a pair of the wrong types is skipped, and
  // the other pairs are adopted.
  fd_local.on_message(ctx, 1,
                      Value::tuple("x", false, 99, 1, 5, false));
  EXPECT_EQ(fd_local.num(0), 0);
  EXPECT_FALSE(fd_local.suspects(0));
  EXPECT_EQ(fd_local.num(1), 0);
  EXPECT_FALSE(fd_local.suspects(1));
  EXPECT_EQ(fd_local.num(2), 5);
  EXPECT_TRUE(fd_local.suspects(2));
}

}  // namespace
}  // namespace ftss
