// ReplayBooks tests (ctest label: conform).
//
// The books are the external observer both differential legs share
// (src/check/replay_books.h).  A "perfect" fake leg drives them straight
// from a sync run's own history, so what they rebuild must be that history,
// fingerprint for fingerprint, with nothing reported.  The claim contract
// and unscheduled sends are then checked one call at a time.
#include "check/replay_books.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "conform/diff.h"
#include "plan_family.h"

namespace ftss {
namespace {

std::vector<bool> sync_crashes(const ReplayBooks& books) {
  std::vector<bool> crashed(books.sync_history().n);
  for (ProcessId p = 0; p < books.sync_history().n; ++p) {
    crashed[p] = books.sync().crashed(p);
  }
  return crashed;
}

// A leg that reproduces the sync run exactly: it observes each recorded
// start-of-round fact, sends each record in its sent round, claims and
// resolves each delivery in its delivery round, and ends every round with
// the sync crash vector.
History replay_perfectly(ReplayBooks& books) {
  const History& h = books.sync_history();
  const std::vector<bool> crashed = sync_crashes(books);
  std::map<Round, std::vector<const SendRecord*>> by_sent_round;
  for (const RoundRecord& rec : h.rounds) {
    for (const SendRecord& s : rec.sends) {
      by_sent_round[s.sent_round].push_back(&s);
    }
  }
  std::map<Round, std::vector<std::pair<std::int64_t, const SendRecord*>>>
      due;
  for (Round r = 1; r <= h.length(); ++r) {
    books.begin_round(r);
    const RoundRecord& rec = h.at(r);
    for (ProcessId p = 0; p < h.n; ++p) {
      if (!rec.alive[p]) continue;
      books.observe(r, p, rec.halted[p], rec.state[p], rec.clock[p],
                    rec.suspects.empty() ? std::vector<ProcessId>{}
                                         : rec.suspects[p]);
    }
    for (const SendRecord* s : by_sent_round[r]) {
      const std::optional<std::int64_t> id =
          books.send(r, s->sender, s->dest, s->payload);
      if (id && (s->fate == Fate::kDelivered ||
                 s->fate == Fate::kDroppedByReceiver)) {
        due[s->delivery_round].emplace_back(*id, s);
      }
    }
    for (const auto& [id, s] : due[r]) {
      if (ReplayBooks::Pending* pend = books.claim(r, s->dest, id)) {
        books.resolve(*pend, r, s->fate, s->payload);
      }
    }
    books.end_round(r, crashed);
  }
  books.close(crashed);
  for (ProcessId p = 0; p < h.n; ++p) {
    if (crashed[p]) continue;
    const SyncProcess& proc = books.sync().process(p);
    books.check_survivor(p, proc.snapshot_state(), proc.halted(),
                         proc.round_counter());
  }
  return books.finish();
}

TEST(ReplayBooks, PerfectLegRebuildsTheSyncHistory) {
  std::set<Fate> fates;
  bool suspects = false;
  for (const TrialPlan& plan :
       {testing::clean_plan(), testing::faulty_plan(), testing::jittery_plan(),
        testing::compiled_plan()}) {
    ReplayBooks books(plan, "fake");
    std::string error;
    ASSERT_TRUE(books.run_sync_leg(&error)) << error;
    const History& sync = books.sync_history();
    for (const RoundRecord& rec : sync.rounds) {
      for (const SendRecord& s : rec.sends) fates.insert(s.fate);
    }
    suspects |= !sync.rounds.front().suspects.empty();

    const History rebuilt = replay_perfectly(books);
    EXPECT_TRUE(books.reports().empty())
        << plan.describe() << describe(books.reports().front());
    EXPECT_TRUE(diff_histories(sync, rebuilt).empty()) << plan.describe();
    EXPECT_EQ(history_fingerprint(rebuilt), history_fingerprint(sync))
        << plan.describe();
  }
  // The family covers every fate the sync leg resolves, and suspect sets.
  EXPECT_EQ(fates, (std::set<Fate>{Fate::kDelivered, Fate::kDroppedBySender,
                                   Fate::kDroppedByReceiver, Fate::kDestCrashed,
                                   Fate::kLostInFlight}));
  EXPECT_TRUE(suspects);
}

// One round of the clean plan: every process broadcasts, so p0's messages
// to p1 and p2 are each scheduled once, delivered in round 1.
TrialPlan one_round_plan() {
  TrialPlan plan = testing::clean_plan();
  plan.rounds = 1;
  return plan;
}

TEST(ReplayBooks, ClaimContractReportsEachMisdeliveryOnce) {
  ReplayBooks books(one_round_plan(), "fake");
  std::string error;
  ASSERT_TRUE(books.run_sync_leg(&error)) << error;
  books.begin_round(1);
  const std::optional<std::int64_t> to_p1 = books.send(1, 0, 1, Value(1));
  const std::optional<std::int64_t> to_p2 = books.send(1, 0, 2, Value(2));
  ASSERT_TRUE(to_p1 && to_p2);

  ReplayBooks::Pending* pend = books.claim(1, 1, *to_p1);
  ASSERT_NE(pend, nullptr);
  books.resolve(*pend, 1, Fate::kDelivered, Value(1));
  EXPECT_EQ(books.claim(1, 1, *to_p1), nullptr);  // a second claim
  EXPECT_EQ(books.claim(1, 3, *to_p2), nullptr);  // the wrong destination
  EXPECT_EQ(books.claim(1, 1, 99), nullptr);      // an id never handed out
  books.end_round(1, sync_crashes(books));

  // Three reports, none of them a "vanished" for the misdelivered message.
  ASSERT_EQ(books.reports().size(), 3u);
  for (const Divergence& d : books.reports()) {
    EXPECT_EQ(d.kind, "schedule");
    EXPECT_EQ(d.round, 1);
    EXPECT_EQ(d.detail.find("vanished"), std::string::npos) << d.detail;
  }
  books.close(sync_crashes(books));
  const History h = books.finish();
  ASSERT_EQ(h.length(), 1);
  ASSERT_EQ(h.at(1).sends.size(), 1u) << "the misdelivery leaves no record";
  EXPECT_EQ(h.at(1).sends.front().fate, Fate::kDelivered);
  EXPECT_EQ(h.at(1).sends.front().dest, 1);
}

TEST(ReplayBooks, UnscheduledSendIsReportedAndGetsNoId) {
  ReplayBooks books(one_round_plan(), "fake");
  std::string error;
  ASSERT_TRUE(books.run_sync_leg(&error)) << error;
  books.begin_round(1);
  ASSERT_TRUE(books.send(1, 0, 1, Value(1)).has_value());
  EXPECT_FALSE(books.send(1, 0, 1, Value(1)).has_value());
  ASSERT_EQ(books.reports().size(), 1u);
  EXPECT_EQ(books.reports().front().kind, "schedule");
  EXPECT_EQ(books.reports().front().round, 1);
  EXPECT_NE(books.reports().front().detail.find("unscheduled"),
            std::string::npos);
  EXPECT_EQ(books.pendings().size(), 1u);

  // Reports stop at the cap; the run still completes.
  for (int i = 0; i < 2 * ReplayBooks::kMaxReports; ++i) {
    books.send(1, 0, 1, Value(1));
  }
  EXPECT_EQ(books.reports().size(),
            static_cast<std::size_t>(ReplayBooks::kMaxReports));
  EXPECT_EQ(books.pendings().size(), 1u);
}

}  // namespace
}  // namespace ftss
