#include "sim/fate_schedule.h"

#include <sstream>

namespace ftss {

FateSchedule extract_fate_schedule(const History& h) {
  FateSchedule schedule;
  for (const RoundRecord& rec : h.rounds) {
    for (const SendRecord& s : rec.sends) {
      if (s.fate == Fate::kUnresolved) {
        schedule.ok = false;
        schedule.error = "history contains a send with no fate";
        return schedule;
      }
      schedule.fates[FateScheduleKey{s.sent_round, s.sender, s.dest}]
          .fates.push_back(ResolvedFate{s.fate, s.delivery_round});
    }
  }
  // Several same-round sends to one destination can only be replayed when
  // their fates agree (FIFO attribution is then exact regardless of
  // pairing).
  for (const auto& [key, fq] : schedule.fates) {
    for (std::size_t i = 1; i < fq.fates.size(); ++i) {
      if (fq.fates[i] != fq.fates[0]) {
        std::ostringstream os;
        os << "ambiguous schedule: p" << std::get<1>(key) << "->p"
           << std::get<2>(key) << " sent " << fq.fates.size()
           << " messages with differing fates in round " << std::get<0>(key);
        schedule.ok = false;
        schedule.error = os.str();
        return schedule;
      }
    }
  }
  return schedule;
}

}  // namespace ftss
