#include "sim/history_dump.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace ftss {

namespace {

// How a send's fate reads in the dump, indexed by Fate.
constexpr const char* kDumpTextByFate[kNumFates] = {
    "delivered",
    "DROPPED (send omission)",
    "DROPPED (receive omission)",
    "LOST (dest crashed)",
    "IN FLIGHT (undelivered at end of run)",
    "REJECTED (frame corrupt on the wire)",
    ""};

}  // namespace

void dump_history(std::ostream& os, const History& h, DumpOptions options) {
  const Round to = options.to_round > 0
                       ? std::min(options.to_round, h.length())
                       : h.length();
  os << "round |";
  for (int p = 0; p < h.n; ++p) os << "      c_" << p << " |";
  os << " coterie | faulty\n";

  for (Round r = std::max<Round>(options.from_round, 1); r <= to; ++r) {
    const RoundRecord& rec = h.at(r);
    os << std::setw(5) << r << " |";
    for (int p = 0; p < h.n; ++p) {
      if (!rec.alive[p]) {
        os << "  crashed |";
      } else if (rec.halted[p]) {
        os << "   halted |";
      } else if (rec.clock[p]) {
        os << std::setw(9) << *rec.clock[p] << " |";
      } else {
        os << "        ? |";
      }
    }
    os << " {";
    for (int p = 0; p < h.n; ++p) {
      if (rec.coterie[p]) os << p;
    }
    os << "} | {";
    for (int p = 0; p < h.n; ++p) {
      if (rec.faulty_by_now[p]) os << p;
    }
    os << "}\n";
    if (options.show_suspects && !rec.suspects.empty()) {
      os << "        suspects:";
      for (int p = 0; p < h.n && p < static_cast<int>(rec.suspects.size());
           ++p) {
        if (!rec.alive[p]) continue;
        os << " " << p << ":{";
        for (std::size_t i = 0; i < rec.suspects[p].size(); ++i) {
          if (i > 0) os << ",";
          os << rec.suspects[p][i];
        }
        os << "}";
      }
      os << "\n";
    }
    if (options.show_sends) {
      for (const auto& s : rec.sends) {
        os << "        " << s.sender << " -> " << s.dest << " "
           << kDumpTextByFate[static_cast<std::size_t>(s.fate)];
        // Jitter-delayed messages resolve in a later round than they were
        // sent; show the send round and delay so they are distinguishable
        // from same-round deliveries.
        if (s.delivery_round != s.sent_round) {
          os << " (sent @" << s.sent_round << ", delay "
             << (s.delivery_round - s.sent_round) << ")";
        }
        if (!s.payload.is_null()) os << "  " << s.payload;
        os << "\n";
      }
    }
  }
}

std::string history_to_string(const History& h, DumpOptions options) {
  std::ostringstream os;
  dump_history(os, h, options);
  return os.str();
}

}  // namespace ftss
