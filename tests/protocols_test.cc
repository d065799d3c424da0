// Unit tests for the terminating protocols Π and the Σ⁺ analysis helpers.
#include <gtest/gtest.h>

#include "core/full_info.h"
#include "protocols/floodset.h"
#include "protocols/interactive_consistency.h"
#include "protocols/reliable_broadcast.h"
#include "protocols/repeated.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

Message state_msg(ProcessId from, Value payload) {
  return Message{from, std::move(payload)};
}

// --- FloodSet ---------------------------------------------------------------

TEST(FloodSet, InitialStateHoldsOwnInput) {
  FloodSetConsensus fs(1);
  Value s = fs.initial_state(0, 3, Value(7));
  EXPECT_EQ(s.at("vals"), Value::array({Value(7)}));
  EXPECT_TRUE(fs.decision(s).is_null());
}

TEST(FloodSet, TransitionUnionsValueSets) {
  FloodSetConsensus fs(2);  // final_round = 3
  Value s = fs.initial_state(0, 3, Value(7));
  Value peer = fs.initial_state(1, 3, Value(3));
  s = fs.transition(0, 3, s, {state_msg(1, peer)}, 1);
  EXPECT_EQ(s.at("vals"), Value::array({Value(3), Value(7)}));
  EXPECT_TRUE(fs.decision(s).is_null());  // not final round yet
}

TEST(FloodSet, DecidesMinimumAtFinalRound) {
  FloodSetConsensus fs(0);  // final_round = 1
  Value s = fs.initial_state(0, 2, Value(7));
  Value peer = fs.initial_state(1, 2, Value(3));
  s = fs.transition(0, 2, s, {state_msg(1, peer)}, 1);
  EXPECT_EQ(fs.decision(s), Value(3));
}

TEST(FloodSet, ToleratesGarbageState) {
  FloodSetConsensus fs(1);
  Value garbage("junk");
  Value s = fs.transition(0, 3, garbage, {}, 1);
  EXPECT_TRUE(s.at("vals").is_array());
  EXPECT_EQ(s.at("vals").size(), 0u);
  EXPECT_TRUE(fs.decision(s).is_null());  // empty set: no decision
}

TEST(FloodSet, ToleratesGarbagePeerPayloads) {
  FloodSetConsensus fs(1);
  Value s = fs.initial_state(0, 3, Value(7));
  s = fs.transition(0, 3, s,
                    {state_msg(1, Value(99)), state_msg(2, Value("x"))}, 2);
  EXPECT_EQ(s.at("vals"), Value::array({Value(7)}));
}

TEST(FloodSet, DeduplicatesValues) {
  FloodSetConsensus fs(1);
  Value s = fs.initial_state(0, 3, Value(7));
  Value peer = fs.initial_state(1, 3, Value(7));
  s = fs.transition(0, 3, s, {state_msg(1, peer)}, 1);
  EXPECT_EQ(s.at("vals").size(), 1u);
}

// --- Interactive consistency -------------------------------------------------

TEST(InteractiveConsistency, InitialStateSlotsOwnInput) {
  InteractiveConsistency ic(1);
  Value s = ic.initial_state(2, 3, Value("v2"));
  EXPECT_EQ(s.at("vec").at("2"), Value("v2"));
}

TEST(InteractiveConsistency, MergesVectors) {
  InteractiveConsistency ic(1);  // final_round = 2
  Value s = ic.initial_state(0, 3, Value("v0"));
  Value p1 = ic.initial_state(1, 3, Value("v1"));
  Value p2 = ic.initial_state(2, 3, Value("v2"));
  s = ic.transition(0, 3, s, {state_msg(1, p1), state_msg(2, p2)}, 1);
  s = ic.transition(0, 3, s, {}, 2);
  Value d = ic.decision(s);
  ASSERT_TRUE(d.is_map());
  EXPECT_EQ(d.at("0"), Value("v0"));
  EXPECT_EQ(d.at("1"), Value("v1"));
  EXPECT_EQ(d.at("2"), Value("v2"));
}

TEST(InteractiveConsistency, ConflictsResolveToSmallerValue) {
  InteractiveConsistency ic(1);
  Value s = ic.initial_state(0, 3, Value("v0"));
  Value claim_a = Value::map({{"vec", Value::map({{"2", Value("bbb")}})}});
  Value claim_b = Value::map({{"vec", Value::map({{"2", Value("aaa")}})}});
  s = ic.transition(0, 3, s, {state_msg(1, claim_a), state_msg(2, claim_b)}, 1);
  EXPECT_EQ(s.at("vec").at("2"), Value("aaa"));
}

TEST(InteractiveConsistency, DropsMalformedSlots) {
  InteractiveConsistency ic(1);
  Value s = ic.initial_state(0, 3, Value("v0"));
  Value bad = Value::map({{"vec", Value::map({{"zz", Value(1)},
                                              {"-3", Value(2)},
                                              {"7", Value(3)},
                                              {"1x", Value(4)}})}});
  s = ic.transition(0, 3, s, {state_msg(1, bad)}, 1);
  EXPECT_EQ(s.at("vec").size(), 1u);  // only our own slot survives
}

TEST(InteractiveConsistency, EndToEndWithCrash) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<InteractiveConsistency>(f);
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<FullInfoProcess>(
        p, n, protocol, Value("v" + std::to_string(p))));
  }
  SyncSimulator sim(SyncConfig{}, std::move(procs));
  sim.set_fault_plan(3, FaultPlan::crash(2));
  sim.run_rounds(2);
  Value d0 = dynamic_cast<const FullInfoProcess&>(sim.process(0)).decision();
  Value d1 = dynamic_cast<const FullInfoProcess&>(sim.process(1)).decision();
  EXPECT_EQ(d0, d1);
  EXPECT_EQ(d0.at("0"), Value("v0"));
  EXPECT_EQ(d0.at("1"), Value("v1"));
  EXPECT_EQ(d0.at("2"), Value("v2"));
  // Slot 3 (crashed after sending round 1) is present: it spoke once.
  EXPECT_EQ(d0.at("3"), Value("v3"));
}

// --- Reliable broadcast -------------------------------------------------------

TEST(ReliableBroadcast, SourceHoldsValueOthersNull) {
  ReliableBroadcastProtocol rb(1);
  Value in = ReliableBroadcastProtocol::make_input(1, Value("m"));
  EXPECT_TRUE(rb.initial_state(0, 3, in).at("val").is_null());
  EXPECT_EQ(rb.initial_state(1, 3, in).at("val"), Value("m"));
}

TEST(ReliableBroadcast, AdoptsValueFromPeers) {
  ReliableBroadcastProtocol rb(1);
  Value in = ReliableBroadcastProtocol::make_input(1, Value("m"));
  Value s = rb.initial_state(0, 3, in);
  Value src = rb.initial_state(1, 3, in);
  s = rb.transition(0, 3, s, {state_msg(1, src)}, 1);
  s = rb.transition(0, 3, s, {}, 2);
  EXPECT_EQ(rb.decision(s), Value("m"));
}

TEST(ReliableBroadcast, NullDecisionWhenSourceSilent) {
  ReliableBroadcastProtocol rb(1);
  Value in = ReliableBroadcastProtocol::make_input(1, Value("m"));
  Value s = rb.initial_state(0, 3, in);
  s = rb.transition(0, 3, s, {}, 1);
  s = rb.transition(0, 3, s, {}, 2);
  EXPECT_TRUE(rb.decision(s).is_null());
}

TEST(ReliableBroadcast, GarbageInputHandled) {
  ReliableBroadcastProtocol rb(1);
  Value s = rb.initial_state(0, 3, Value("not a map"));
  EXPECT_TRUE(s.at("val").is_null());
}

// --- Validity predicates -------------------------------------------------------

DecisionRecord rec(ProcessId p, Value value, Value input) {
  return DecisionRecord{.process = p,
                        .iteration = 0,
                        .at_actual_round = 1,
                        .value = std::move(value),
                        .input_used = std::move(input)};
}

TEST(Validity, ConsensusAcceptsAnyCorrectInput) {
  auto v = consensus_validity();
  auto r0 = rec(0, Value(5), Value(9));
  auto r1 = rec(1, Value(5), Value(5));
  std::vector<const DecisionRecord*> records{&r0, &r1};
  EXPECT_TRUE(v(Value(5), records));
  EXPECT_FALSE(v(Value(7), records));
}

TEST(Validity, BroadcastRequiresSourceProposal) {
  auto v = broadcast_validity();
  auto src = rec(1, Value("m"), ReliableBroadcastProtocol::make_input(1, Value("m")));
  auto other = rec(0, Value("m"), ReliableBroadcastProtocol::make_input(1, Value("m")));
  std::vector<const DecisionRecord*> records{&other, &src};
  EXPECT_TRUE(v(Value("m"), records));
  EXPECT_FALSE(v(Value("x"), records));
}

TEST(Validity, BroadcastNullValidOnlyWithoutCorrectSource) {
  auto v = broadcast_validity();
  auto other = rec(0, Value(), ReliableBroadcastProtocol::make_input(9, Value("m")));
  std::vector<const DecisionRecord*> no_source{&other};
  EXPECT_TRUE(v(Value(), no_source));
  auto src = rec(9, Value(), ReliableBroadcastProtocol::make_input(9, Value("m")));
  std::vector<const DecisionRecord*> with_source{&other, &src};
  EXPECT_FALSE(v(Value(), with_source));
}

TEST(Validity, InteractiveConsistencyChecksOwnSlots) {
  auto v = interactive_consistency_validity();
  auto r0 = rec(0, Value(), Value("v0"));
  auto r1 = rec(1, Value(), Value("v1"));
  std::vector<const DecisionRecord*> records{&r0, &r1};
  Value good = Value::map({{"0", Value("v0")}, {"1", Value("v1")}});
  Value bad = Value::map({{"0", Value("v0")}, {"1", Value("WRONG")}});
  EXPECT_TRUE(v(good, records));
  EXPECT_FALSE(v(bad, records));
  EXPECT_FALSE(v(Value(3), records));
}

}  // namespace
}  // namespace ftss
