// Leader election and atomic commitment — unit tests for the protocols and
// end-to-end tests of the compiled, self-stabilizing services.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/full_info.h"
#include "protocols/atomic_commit.h"
#include "protocols/leader_election.h"
#include "protocols/repeated.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

Message state_msg(ProcessId from, Value payload) {
  return Message{from, std::move(payload)};
}

// --- LeaderElection unit ------------------------------------------------------

TEST(LeaderElection, InitialStateIsSelf) {
  LeaderElection le(1);
  Value s = le.initial_state(2, 4, Value());
  EXPECT_EQ(s.at("ids"), Value::array({Value(2)}));
}

TEST(LeaderElection, ElectsMinimumSeen) {
  LeaderElection le(0);  // final_round = 1
  Value s = le.initial_state(3, 4, Value());
  s = le.transition(3, 4, s,
                    {state_msg(1, le.initial_state(1, 4, Value())),
                     state_msg(2, le.initial_state(2, 4, Value()))},
                    1);
  EXPECT_EQ(le.decision(s), Value(1));
}

TEST(LeaderElection, GarbageIdsFiltered) {
  LeaderElection le(1);
  Value bad = Value::map(
      {{"ids", Value::array({Value(-3), Value(99), Value("x"), Value(1)})}});
  Value s = le.initial_state(2, 4, Value());
  s = le.transition(2, 4, s, {state_msg(1, bad)}, 1);
  EXPECT_EQ(s.at("ids"), Value::array({Value(1), Value(2)}));
}

TEST(LeaderElection, ValidityRejectsSmallerCorrectId) {
  auto v = leader_validity();
  DecisionRecord r0{.process = 0, .iteration = 0, .at_actual_round = 1,
                    .value = Value(1), .input_used = Value()};
  DecisionRecord r1{.process = 1, .iteration = 0, .at_actual_round = 1,
                    .value = Value(1), .input_used = Value()};
  std::vector<const DecisionRecord*> records{&r0, &r1};
  EXPECT_FALSE(v(Value(1), records));  // 0 participated but 1 elected
  std::vector<const DecisionRecord*> without_zero{&r1};
  EXPECT_TRUE(v(Value(1), without_zero));
  EXPECT_FALSE(v(Value("x"), without_zero));
}

// --- AtomicCommit unit ---------------------------------------------------------

TEST(AtomicCommit, CommitsOnUnanimousYes) {
  AtomicCommit ac(0);  // final_round = 1, n = 2
  Value s = ac.initial_state(0, 2, Value(true));
  s = ac.transition(0, 2, s, {state_msg(1, ac.initial_state(1, 2, Value(true)))},
                    1);
  EXPECT_EQ(ac.decision(s), Value("commit"));
}

TEST(AtomicCommit, AbortsOnAnyNo) {
  AtomicCommit ac(0);
  Value s = ac.initial_state(0, 2, Value(true));
  s = ac.transition(0, 2, s,
                    {state_msg(1, ac.initial_state(1, 2, Value(false)))}, 1);
  EXPECT_EQ(ac.decision(s), Value("abort"));
}

TEST(AtomicCommit, AbortsOnMissingVote) {
  AtomicCommit ac(0);
  Value s = ac.initial_state(0, 3, Value(true));
  s = ac.transition(0, 3, s,
                    {state_msg(1, ac.initial_state(1, 3, Value(true)))}, 1);
  EXPECT_EQ(ac.decision(s), Value("abort"));  // vote of process 2 missing
}

TEST(AtomicCommit, CorruptedVoteCannotForceCommit) {
  AtomicCommit ac(0);
  Value evil = Value::map({{"votes", Value::map({{"1", Value("yes")}})}});
  Value s = ac.initial_state(0, 2, Value(true));
  s = ac.transition(0, 2, s, {state_msg(1, evil)}, 1);
  EXPECT_EQ(ac.decision(s), Value("abort"));  // non-bool vote counts as no
}

TEST(AtomicCommit, ConflictingVoteClaimsResolveToNo) {
  AtomicCommit ac(1);
  Value claim_yes = Value::map({{"votes", Value::map({{"2", Value(true)}})}});
  Value claim_no = Value::map({{"votes", Value::map({{"2", Value(false)}})}});
  Value s = ac.initial_state(0, 3, Value(true));
  s = ac.transition(0, 3, s, {state_msg(1, claim_yes), state_msg(2, claim_no)},
                    1);
  EXPECT_EQ(s.at("votes").at("2"), Value(false));
}

TEST(AtomicCommit, CommitValidityRules) {
  auto v = commit_validity(2);
  DecisionRecord yes0{.process = 0, .iteration = 0, .at_actual_round = 1,
                      .value = Value("commit"), .input_used = Value(true)};
  DecisionRecord yes1{.process = 1, .iteration = 0, .at_actual_round = 1,
                      .value = Value("commit"), .input_used = Value(true)};
  DecisionRecord no1{.process = 1, .iteration = 0, .at_actual_round = 1,
                     .value = Value("abort"), .input_used = Value(false)};
  std::vector<const DecisionRecord*> both_yes{&yes0, &yes1};
  std::vector<const DecisionRecord*> one_no{&yes0, &no1};
  std::vector<const DecisionRecord*> partial{&yes0};
  EXPECT_TRUE(v(Value("commit"), both_yes));
  EXPECT_FALSE(v(Value("commit"), one_no));
  // A missing record means a faulty voter; commit is still valid if it had
  // spread a yes before failing — only a correct NO can refute a commit.
  EXPECT_TRUE(v(Value("commit"), partial));
  EXPECT_TRUE(v(Value("abort"), one_no));
  EXPECT_TRUE(v(Value("abort"), partial));
  EXPECT_FALSE(v(Value("abort"), both_yes));  // abort without excuse
  EXPECT_FALSE(v(Value("garbage"), both_yes));
}

// --- Compiled services ----------------------------------------------------------

TEST(CompiledLeaderElection, LeaderReplacedAfterCrash) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<LeaderElection>(f);
  InputSource inputs = [](ProcessId, std::int64_t) { return Value(); };
  SyncSimulator sim(SyncConfig{.seed = 1},
                    compile_protocol(n, protocol, inputs));
  sim.set_fault_plan(0, FaultPlan::crash(6));  // leader crashes mid-stream
  sim.run_rounds(16);  // final_round = 2 -> 8 iterations
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   leader_validity());
  ASSERT_GE(analysis.iterations.size(), 6u);
  // Early iterations elect 0; after the crash the service re-elects 1.
  EXPECT_EQ(analysis.iterations.front().decision, Value(0));
  EXPECT_EQ(analysis.iterations.back().decision, Value(1));
  // Every iteration decided by the survivors is clean.
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(it.agreement) << it.iteration;
    EXPECT_TRUE(it.complete) << it.iteration;
  }
  // The handover takes at most 2 iterations after the crash round.
  for (const auto& it : analysis.iterations) {
    if (it.first_decided_round >= 6 + 2 * protocol->final_round()) {
      EXPECT_EQ(it.decision, Value(1)) << it.iteration;
    }
  }
}

TEST(CompiledLeaderElection, RecoversFromCorruption) {
  const int n = 5, f = 2;
  auto protocol = std::make_shared<LeaderElection>(f);
  InputSource inputs = [](ProcessId, std::int64_t) { return Value(); };
  SyncSimulator sim(SyncConfig{.seed = 2},
                    compile_protocol(n, protocol, inputs));
  Rng rng(2);
  for (ProcessId p = 0; p < n; ++p) {
    sim.corrupt_state(p, random_value(rng, 10'000));
  }
  sim.run_rounds(30);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   leader_validity());
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_LE(*clean_from, 1 + 2 * protocol->final_round());
  // Post-stabilization the stable leader is process 0.
  EXPECT_EQ(analysis.iterations.back().decision, Value(0));
}

TEST(CompiledAtomicCommit, VotesDriveOutcomePerIteration) {
  const int n = 3, f = 1;
  auto protocol = std::make_shared<AtomicCommit>(f);
  // Iterations alternate: everyone yes on even, process 1 votes no on odd.
  InputSource inputs = [](ProcessId p, std::int64_t iteration) {
    return Value(!(iteration % 2 == 1 && p == 1));
  };
  SyncSimulator sim(SyncConfig{.seed = 3},
                    compile_protocol(n, protocol, inputs));
  sim.run_rounds(16);  // final_round = 2 -> 8 iterations
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   commit_validity(n));
  ASSERT_GE(analysis.iterations.size(), 8u);
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(RepeatedAnalysis::clean(it, true)) << it.iteration;
    EXPECT_EQ(it.decision,
              Value(it.iteration % 2 == 0 ? "commit" : "abort"))
        << it.iteration;
  }
}

TEST(CompiledAtomicCommit, CrashForcesAbortThenCorruptionHeals) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<AtomicCommit>(f);
  InputSource inputs = [](ProcessId, std::int64_t) { return Value(true); };
  SyncSimulator sim(SyncConfig{.seed = 4},
                    compile_protocol(n, protocol, inputs));
  Rng rng(4);
  for (ProcessId p = 0; p < n; ++p) {
    sim.corrupt_state(p, random_value(rng, 10'000));
  }
  sim.set_fault_plan(3, FaultPlan::crash(9));
  sim.run_rounds(24);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   commit_validity(n));
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  // After the crash, the missing vote forces abort forever — still clean
  // (abort with an excuse) and agreed.
  EXPECT_EQ(analysis.iterations.back().decision, Value("abort"));
  // Before the crash but after stabilization, unanimous yes commits.
  bool saw_commit = false;
  for (const auto& it : analysis.iterations) {
    if (it.first_decided_round >= *clean_from && it.last_decided_round < 9) {
      saw_commit |= it.decision == Value("commit");
    }
  }
  EXPECT_TRUE(saw_commit);
}

}  // namespace
}  // namespace ftss
