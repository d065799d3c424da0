#include "obs/causal_export.h"

#include <algorithm>
#include <sstream>

namespace ftss {

namespace {

std::string node(ProcessId p, Round r) {
  return "p" + std::to_string(p) + "_r" + std::to_string(r);
}

}  // namespace

std::string causal_dot_to_string(const History& h) {
  std::ostringstream os;
  const Round to = h.length();
  const std::vector<bool> coterie =
      h.rounds.empty() ? std::vector<bool>(h.n, false)
                       : h.rounds.back().coterie;
  const std::vector<Round> changes = h.coterie_change_rounds();

  os << "// happened-before DAG (Definition 2.3); doubled nodes = final\n"
        "// coterie members, dashed red rounds = coterie changes\n"
        "digraph happened_before {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontsize=10];\n";

  for (Round r = 1; r <= to; ++r) {
    const RoundRecord& rec = h.at(r);
    os << "  subgraph cluster_r" << r << " {\n    label=\"round " << r
       << "\";\n";
    if (std::find(changes.begin(), changes.end(), r) != changes.end()) {
      os << "    color=red; style=dashed;\n";
    }
    for (ProcessId p = 0; p < h.n; ++p) {
      if (!rec.alive[p]) continue;
      os << "    " << node(p, r) << " [label=\"p" << p;
      if (rec.clock[p]) os << "\\nc=" << *rec.clock[p];
      os << "\"";
      if (coterie[p]) os << ", peripheries=2";
      if (rec.halted[p]) os << ", style=dotted";
      os << "];\n";
    }
    os << "  }\n";
  }

  // Program order.
  for (Round r = 1; r < to; ++r) {
    const RoundRecord& rec = h.at(r);
    const RoundRecord& next = h.at(r + 1);
    for (ProcessId p = 0; p < h.n; ++p) {
      if (!rec.alive[p] || !next.alive[p]) continue;
      os << "  " << node(p, r) << " -> " << node(p, r + 1)
         << " [style=bold, color=gray];\n";
    }
  }

  // Message order: delivered sends only (sends recorded in the round of
  // their *delivery*; jittered edges span multiple clusters).
  for (Round r = 1; r <= to; ++r) {
    for (const SendRecord& s : h.at(r).sends) {
      if (s.fate != Fate::kDelivered || s.sender == s.dest) continue;
      os << "  " << node(s.sender, s.sent_round) << " -> "
         << node(s.dest, s.delivery_round);
      if (s.delivery_round != s.sent_round) {
        os << " [label=\"+" << (s.delivery_round - s.sent_round) << "\"]";
      }
      os << ";\n";
    }
  }

  os << "}\n";
  return os.str();
}

}  // namespace ftss
