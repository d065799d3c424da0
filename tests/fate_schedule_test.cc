// extract_fate_schedule (sim/fate_schedule.h) on hand-built histories.  No
// shipped protocol produces either shape it refuses — a send no writer
// resolved, or one (round, sender, dest) key whose sends disagree on their
// fate — so only a history built by hand reaches those branches.
#include <gtest/gtest.h>

#include "sim/fate_schedule.h"

namespace ftss {
namespace {

SendRecord send(ProcessId sender, ProcessId dest, Round sent, Fate fate,
                Round delivered) {
  SendRecord s;
  s.sender = sender;
  s.dest = dest;
  s.payload = Value(sent);
  s.fate = fate;
  s.sent_round = sent;
  s.delivery_round = delivered;
  return s;
}

// Two processes, two rounds; round r's record holds `sends[r - 1]`.
History history_of(std::vector<std::vector<SendRecord>> sends) {
  History h;
  h.n = 2;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    RoundRecord rec;
    rec.round = static_cast<Round>(i + 1);
    rec.sends = std::move(sends[i]);
    h.rounds.push_back(std::move(rec));
  }
  return h;
}

// The positive control: same-key sends whose fates agree queue up FIFO.
TEST(FateSchedule, AgreeingSendsQueueUnderOneKey) {
  const FateSchedule s = extract_fate_schedule(history_of(
      {{send(0, 1, 1, Fate::kDelivered, 1), send(0, 1, 1, Fate::kDelivered, 1),
        send(1, 0, 1, Fate::kDroppedByReceiver, 1)},
       {send(0, 1, 2, Fate::kDroppedBySender, 2)}}));
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.error.empty());
  ASSERT_EQ(s.fates.size(), 3u);
  const FateQueue& q = s.fates.at(FateScheduleKey{1, 0, 1});
  ASSERT_EQ(q.fates.size(), 2u);
  EXPECT_EQ(q.fates[1], (ResolvedFate{Fate::kDelivered, 1}));
  EXPECT_EQ(q.next, 0u);
  EXPECT_EQ(s.fates.at(FateScheduleKey{1, 1, 0}).fates.front().fate,
            Fate::kDroppedByReceiver);
}

TEST(FateSchedule, RejectsASendWithNoFate) {
  const FateSchedule s = extract_fate_schedule(history_of(
      {{send(0, 1, 1, Fate::kDelivered, 1)},
       {send(1, 0, 2, Fate::kUnresolved, 0)}}));
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error, "history contains a send with no fate");
}

TEST(FateSchedule, RejectsOneKeyWhoseSendsDisagree) {
  // Differing fates under one key.
  FateSchedule s = extract_fate_schedule(history_of(
      {{send(1, 0, 1, Fate::kDelivered, 1)},
       {send(0, 1, 2, Fate::kDelivered, 2),
        send(0, 1, 2, Fate::kDroppedByReceiver, 2)}}));
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error,
            "ambiguous schedule: p0->p1 sent 2 messages with differing fates "
            "in round 2");

  // The same fate with differing delivery rounds is just as ambiguous: FIFO
  // attribution could hand either message the earlier round.
  s = extract_fate_schedule(history_of(
      {{send(1, 0, 1, Fate::kDelivered, 1), send(1, 0, 1, Fate::kDelivered, 1),
        send(1, 0, 1, Fate::kDelivered, 2)}}));
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error,
            "ambiguous schedule: p1->p0 sent 3 messages with differing fates "
            "in round 1");
}

}  // namespace
}  // namespace ftss
