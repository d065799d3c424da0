// Pins how every consumer of a send record renders each of its fates: the
// history dump, the history metrics, the history fingerprint and the
// differ.  (The Chrome trace draws fates from the simulator's trace events,
// not from send records; Exporters.OutputBytesArePinned in obs_test pins
// it.)
//
// The history is built by hand so that it holds one send of each resolved
// fate — including a send omission and a frame corruption, which no
// in-memory simulator run of the exporter pins produces — and every
// expected value below is the exact output of the code that renders it.
// Only the record-building lines may change with the record format.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "conform/diff.h"
#include "obs/metrics.h"
#include "sim/history.h"
#include "sim/history_dump.h"

namespace ftss {
namespace {

SendRecord send(ProcessId sender, ProcessId dest, Round sent, Round due,
                Fate fate, std::int64_t payload) {
  SendRecord s;
  s.sender = sender;
  s.dest = dest;
  s.sent_round = sent;
  s.delivery_round = due;
  s.payload = Value(payload);
  s.fate = fate;
  return s;
}

RoundRecord round_record(Round r, std::vector<bool> alive,
                         std::vector<bool> faulty, std::vector<bool> coterie) {
  RoundRecord rec;
  rec.round = r;
  rec.halted.assign(alive.size(), false);
  rec.state.resize(alive.size());
  for (std::size_t p = 0; p < alive.size(); ++p) {
    if (alive[p]) rec.clock.emplace_back(r);
    else rec.clock.emplace_back();
  }
  rec.alive = std::move(alive);
  rec.faulty_by_now = std::move(faulty);
  rec.coterie = std::move(coterie);
  return rec;
}

// Three processes, two rounds.  In round 1 p0 send-omits one of its two
// messages to p2 (so the differ's canonical order must break the tie by
// fate) and p2 receive-omits from p1.  p2 is crashed in round 2, where a
// frame from p0 is rejected and a jitter-delayed send from p1 is still in
// flight when the run ends (due in round 3).
History all_fates_history() {
  History h;
  h.n = 3;
  RoundRecord r1 = round_record(1, {true, true, true}, {true, false, true},
                                {true, true, true});
  r1.sends.push_back(send(0, 1, 1, 1, Fate::kDelivered, 1));
  r1.sends.push_back(send(0, 2, 1, 1, Fate::kDroppedBySender, 2));
  r1.sends.push_back(send(0, 2, 1, 1, Fate::kDelivered, 7));
  r1.sends.push_back(send(1, 2, 1, 1, Fate::kDroppedByReceiver, 3));
  RoundRecord r2 = round_record(2, {true, true, false}, {true, false, true},
                                {true, true, false});
  r2.sends.push_back(send(1, 2, 2, 2, Fate::kDestCrashed, 4));
  r2.sends.push_back(send(0, 1, 2, 2, Fate::kFrameCorrupted, 5));
  r2.sends.push_back(send(1, 0, 2, 3, Fate::kLostInFlight, 6));
  h.rounds = {std::move(r1), std::move(r2)};
  return h;
}

TEST(FateRendering, HistoryDumpNamesEveryFate) {
  DumpOptions options;
  options.show_sends = true;
  EXPECT_EQ(
      history_to_string(all_fates_history(), options),
      "round |      c_0 |      c_1 |      c_2 | coterie | faulty\n"
      "    1 |        1 |        1 |        1 | {012} | {02}\n"
      "        0 -> 1 delivered  1\n"
      "        0 -> 2 DROPPED (send omission)  2\n"
      "        0 -> 2 delivered  7\n"
      "        1 -> 2 DROPPED (receive omission)  3\n"
      "    2 |        2 |        2 |  crashed | {01} | {02}\n"
      "        1 -> 2 LOST (dest crashed)  4\n"
      "        0 -> 1 REJECTED (frame corrupt on the wire)  5\n"
      "        1 -> 0 IN FLIGHT (undelivered at end of run) (sent @2, delay 1)"
      "  6\n");
}

TEST(FateRendering, HistoryMetricsCountEveryFate) {
  MetricsRegistry m;
  record_history_metrics(all_fates_history(), m);
  EXPECT_EQ(m.snapshot().counters,
            (MetricMap<std::int64_t>{
                {"coterie_changes", 1},
                {"msgs_delayed", 1},
                {"msgs_delivered", 2},
                {"msgs_dropped_dest_crashed", 1},
                {"msgs_dropped_frame_corrupt", 1},
                {"msgs_dropped_receive_omission", 1},
                {"msgs_dropped_send_omission", 1},
                {"msgs_in_flight_at_end", 1},
                {"msgs_sent", 7},
                {"rounds", 2},
            }));
}

TEST(FateRendering, HistoryFingerprintIsPinned) {
  const std::uint64_t fp = history_fingerprint(all_fates_history());
  EXPECT_EQ(fp, 0x97a2c6b6304029fcULL) << std::hex << fp;
}

TEST(FateRendering, DiffNamesBothFatesOfAChangedSend) {
  const History a = all_fates_history();
  History b = a;
  b.rounds[0].sends[0].fate = Fate::kFrameCorrupted;
  const std::vector<Divergence> d = diff_histories(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(describe(d[0]),
            "sends@1: 0->1 sent@1 due@1 delivered 1 vs "
            "0->1 sent@1 due@1 frame-corrupt 1");
}

}  // namespace
}  // namespace ftss
