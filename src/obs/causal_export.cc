#include "obs/causal_export.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/trace.h"

namespace ftss {

namespace {

std::string node(ProcessId p, Round r) {
  return "p" + std::to_string(p) + "_r" + std::to_string(r);
}

}  // namespace

void export_causal_dot(std::ostream& os, const History& h) {
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
}

std::string causal_dot_to_string(const History& h) {
  std::ostringstream os;
  export_causal_dot(os, h);
  return os.str();
}

void export_chrome_flows(std::ostream& os, const History& h) {
  constexpr std::int64_t us = kChromeUsPerRound;
  Value::Array out;

  for (ProcessId p = 0; p < h.n; ++p) {
    Value meta = chrome_record("thread_name", "M", 0, p);
    meta["args"]["name"] = Value("process " + std::to_string(p));
    out.push_back(std::move(meta));
  }

  // Per-(round, process) slices carrying the clock value, so the flow
  // arrows have slices to attach to and the timeline doubles as a clock
  // table.
  for (const RoundRecord& rec : h.rounds) {
    const std::int64_t ts = rec.round * us;
    for (ProcessId p = 0; p < h.n; ++p) {
      if (!rec.alive[p]) continue;
      std::string label = "r" + std::to_string(rec.round);
      if (rec.clock[p]) label += " c=" + std::to_string(*rec.clock[p]);
      Value span = chrome_record(std::move(label), "X", ts, p);
      span["dur"] = Value(us);
      out.push_back(std::move(span));
    }
  }

  // Message edges as flows; drops as instants with their cause.
  std::int64_t flow_id = 0;
  for (const RoundRecord& rec : h.rounds) {
    for (const SendRecord& s : rec.sends) {
      if (s.fate == Fate::kDelivered && s.sender != s.dest) {
        const std::int64_t id = flow_id++;
        Value start =
            chrome_record("msg", "s", s.sent_round * us + us / 4, s.sender);
        start["id"] = Value(id);
        out.push_back(std::move(start));
        Value finish = chrome_record(
            "msg", "f", s.delivery_round * us + (3 * us) / 4, s.dest);
        finish["id"] = Value(id);
        finish["bp"] = Value("e");
        out.push_back(std::move(finish));
      } else if (s.fate != Fate::kDelivered) {
        Value inst = chrome_record(
            "drop", "i", s.delivery_round * us + (3 * us) / 4, s.dest);
        inst["s"] = Value("t");
        inst["args"]["cause"] = Value(fate_cause(s.fate));
        inst["args"]["sender"] = Value(s.sender);
        inst["args"]["sent_round"] = Value(s.sent_round);
        out.push_back(std::move(inst));
      }
    }
  }

  // De-stabilizing events.
  for (Round r : h.coterie_change_rounds()) {
    Value inst = chrome_record("coterie change", "i", r * us + us - 1, 0);
    inst["s"] = Value("g");
    out.push_back(std::move(inst));
  }

  os << chrome_document(std::move(out), "ms") << "\n";
}

std::string chrome_flows_to_string(const History& h) {
  std::ostringstream os;
  export_chrome_flows(os, h);
  return os.str();
}

}  // namespace ftss
