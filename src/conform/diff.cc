#include "conform/diff.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/fnv.h"

namespace ftss {

namespace {

// Canonical per-round ordering: content-identifying fields first, payload
// hash as the final tie-break so the order is deterministic without deep
// comparisons in the sort.
bool canonical_less(const SendRecord& a, const SendRecord& b) {
  const auto key = [](const SendRecord& s) {
    return std::make_tuple(s.sent_round, s.sender, s.dest, s.delivery_round,
                           s.fate, s.payload.hash());
  };
  return key(a) < key(b);
}

std::vector<SendRecord> canonical_sends(const RoundRecord& rec) {
  std::vector<SendRecord> out = rec.sends;
  std::stable_sort(out.begin(), out.end(), canonical_less);
  return out;
}

std::string send_brief(const SendRecord& s) {
  std::ostringstream os;
  os << s.sender << "->" << s.dest << " sent@" << s.sent_round << " due@"
     << s.delivery_round << " " << fate_name(s.fate);
  if (!s.payload.is_null()) os << " " << s.payload.to_string();
  return os.str();
}

// p's start-of-round state.  A history recorded with state recording off
// has an empty column, which reads as all-null.
const Value& state_of(const RoundRecord& rec, int p) {
  static const Value kNull;
  return rec.state.empty() ? kNull : rec.state[p];
}

std::string clock_str(const std::optional<Round>& c) {
  return c ? std::to_string(*c) : std::string("-");
}

std::string ids_str(const std::vector<ProcessId>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out + "}";
}

std::string bools_str(const std::vector<bool>& bs) {
  std::string out;
  for (const bool b : bs) out += b ? '1' : '0';
  return out;
}

// Keeps the first kMaxDivergences reports; the scan goes on past them, but
// their details are never built.
constexpr std::size_t kMaxDivergences = 16;

class DivergenceSink {
 public:
  explicit DivergenceSink(std::vector<Divergence>& out) : out_(out) {}

  template <typename MakeDetail>
  void report(const char* kind, Round round, MakeDetail&& make_detail) {
    if (out_.size() < kMaxDivergences) {
      out_.push_back(Divergence{kind, round, make_detail()});
    }
  }

 private:
  std::vector<Divergence>& out_;
};

}  // namespace

std::vector<Divergence> diff_histories(const History& a, const History& b) {
  std::vector<Divergence> out;
  DivergenceSink sink(out);

  if (a.n != b.n) {
    sink.report("length", 0, [&] {
      return "process counts differ: " + std::to_string(a.n) + " vs " +
             std::to_string(b.n);
    });
    return out;
  }
  if (a.rounds.size() != b.rounds.size()) {
    sink.report("length", 0, [&] {
      return "round counts differ: " + std::to_string(a.rounds.size()) +
             " vs " + std::to_string(b.rounds.size());
    });
  }

  const std::size_t rounds = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < rounds; ++i) {
    const RoundRecord& ra = a.rounds[i];
    const RoundRecord& rb = b.rounds[i];
    const Round r = ra.round;

    for (int p = 0; p < a.n; ++p) {
      if (ra.alive[p] != rb.alive[p]) {
        sink.report("alive", r, [&] {
          return "p" + std::to_string(p) + ": " +
                 (ra.alive[p] ? "alive" : "crashed") + " vs " +
                 (rb.alive[p] ? "alive" : "crashed");
        });
      }
      if (ra.halted[p] != rb.halted[p]) {
        sink.report("halted", r, [&] {
          return "p" + std::to_string(p) + ": halted " +
                 bools_str({ra.halted[p]}) + " vs " + bools_str({rb.halted[p]});
        });
      }
      if (ra.clock[p] != rb.clock[p]) {
        sink.report("clock", r, [&] {
          return "p" + std::to_string(p) + ": " + clock_str(ra.clock[p]) +
                 " vs " + clock_str(rb.clock[p]);
        });
      }
      const Value& sa = state_of(ra, p);
      const Value& sb = state_of(rb, p);
      if (sa != sb) {
        sink.report("state", r, [&] {
          return "p" + std::to_string(p) + ": " + sa.to_string() + " vs " +
                 sb.to_string();
        });
      }
    }

    {
      const std::vector<SendRecord> sa = canonical_sends(ra);
      const std::vector<SendRecord> sb = canonical_sends(rb);
      if (sa.size() != sb.size()) {
        sink.report("sends", r, [&] {
          return "send-record counts differ: " + std::to_string(sa.size()) +
                 " vs " + std::to_string(sb.size());
        });
      }
      const std::size_t ns = std::min(sa.size(), sb.size());
      for (std::size_t s = 0; s < ns; ++s) {
        if (sa[s].sender != sb[s].sender || sa[s].dest != sb[s].dest ||
            sa[s].sent_round != sb[s].sent_round ||
            sa[s].delivery_round != sb[s].delivery_round ||
            sa[s].fate != sb[s].fate || !(sa[s].payload == sb[s].payload)) {
          sink.report("sends", r, [&] {
            return send_brief(sa[s]) + " vs " + send_brief(sb[s]);
          });
        }
      }
    }

    if (ra.suspects != rb.suspects) {
      sink.report("suspects", r, [&] {
        for (std::size_t p = 0; p < ra.suspects.size() && p < rb.suspects.size();
             ++p) {
          if (ra.suspects[p] != rb.suspects[p]) {
            return "p" + std::to_string(p) + ": " + ids_str(ra.suspects[p]) +
                   " vs " + ids_str(rb.suspects[p]);
          }
        }
        return std::string("suspect-set shapes differ");
      });
    }
    if (ra.faulty_by_now != rb.faulty_by_now) {
      sink.report("faulty", r, [&] {
        return bools_str(ra.faulty_by_now) + " vs " + bools_str(rb.faulty_by_now);
      });
    }
    if (ra.coterie != rb.coterie) {
      sink.report("coterie", r, [&] {
        return bools_str(ra.coterie) + " vs " + bools_str(rb.coterie);
      });
    }
  }
  return out;
}

std::uint64_t history_fingerprint(const History& h) {
  std::uint64_t fp = kFnv1aBasis;
  fp = fnv1a_bytes(fp, "n=" + std::to_string(h.n));
  for (const RoundRecord& rec : h.rounds) {
    fp = fnv1a_bytes(fp, "r" + std::to_string(rec.round));
    fp = fnv1a_bytes(fp, bools_str(rec.alive));
    fp = fnv1a_bytes(fp, bools_str(rec.halted));
    for (int p = 0; p < h.n; ++p) {
      fp = fnv1a_bytes(fp, clock_str(rec.clock[p]));
      const Value& state = state_of(rec, p);
      fp = fnv1a_bytes(fp, state.is_null() ? "-" : state.to_string());
    }
    for (const SendRecord& s : canonical_sends(rec)) {
      fp = fnv1a_bytes(fp, send_brief(s));
    }
    for (const auto& susp : rec.suspects) fp = fnv1a_bytes(fp, ids_str(susp));
    fp = fnv1a_bytes(fp, bools_str(rec.faulty_by_now));
    fp = fnv1a_bytes(fp, bools_str(rec.coterie));
  }
  return fp;
}

Value deep_copy_value(const Value& v) {
  if (v.is_array()) {
    Value::Array out;
    out.reserve(v.as_array().size());
    for (const Value& item : v.as_array()) out.push_back(deep_copy_value(item));
    return Value(std::move(out));
  }
  if (v.is_map()) {
    Value::Map out;
    for (const auto& [k, item] : v.as_map()) {
      out.emplace(k, deep_copy_value(item));
    }
    return Value(std::move(out));
  }
  return v;  // scalars carry no shared nodes
}

TrialPlan permute_plan(const TrialPlan& plan,
                       const std::vector<ProcessId>& perm) {
  TrialPlan out = plan;
  for (auto& f : out.faults) {
    f.process = perm.at(f.process);
    if (f.peer != OmissionRule::kAllPeers) f.peer = perm.at(f.peer);
  }
  for (auto& c : out.corruptions) c.process = perm.at(c.process);
  return out;
}

History permute_history(const History& h, const std::vector<ProcessId>& perm) {
  History out;
  out.n = h.n;
  out.rounds.reserve(h.rounds.size());
  for (const RoundRecord& rec : h.rounds) {
    RoundRecord pr;
    pr.round = rec.round;
    pr.alive.resize(h.n);
    pr.halted.resize(h.n);
    if (!rec.state.empty()) pr.state.resize(h.n);
    pr.clock.resize(h.n);
    pr.faulty_by_now.resize(h.n);
    pr.coterie.resize(h.n);
    if (!rec.suspects.empty()) pr.suspects.resize(h.n);
    for (int p = 0; p < h.n; ++p) {
      const int q = perm.at(p);
      pr.alive[q] = rec.alive[p];
      pr.halted[q] = rec.halted[p];
      if (!rec.state.empty()) pr.state[q] = rec.state[p];
      pr.clock[q] = rec.clock[p];
      pr.faulty_by_now[q] = rec.faulty_by_now[p];
      pr.coterie[q] = rec.coterie[p];
      if (!rec.suspects.empty()) {
        std::vector<ProcessId> renamed;
        renamed.reserve(rec.suspects[p].size());
        for (const ProcessId s : rec.suspects[p]) renamed.push_back(perm.at(s));
        std::sort(renamed.begin(), renamed.end());
        pr.suspects[q] = std::move(renamed);
      }
    }
    pr.sends.reserve(rec.sends.size());
    for (SendRecord s : rec.sends) {
      s.sender = perm.at(s.sender);
      s.dest = perm.at(s.dest);
      pr.sends.push_back(std::move(s));
    }
    out.rounds.push_back(std::move(pr));
  }
  return out;
}

std::string describe(const Divergence& d) {
  std::ostringstream os;
  os << d.kind << "@" << d.round << ": " << d.detail;
  return os.str();
}

}  // namespace ftss
