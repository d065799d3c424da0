#include "check/plan.h"

#include <algorithm>
#include <sstream>

#include "sim/corrupt.h"
#include "util/cli.h"

namespace ftss {

namespace {

const char* fault_kind_name(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kCrash:
      return "crash";
    case FaultSpec::Kind::kSendOmission:
      return "send-omission";
    default:
      return "receive-omission";
  }
}

std::optional<FaultSpec::Kind> parse_fault_kind(const std::string& s) {
  if (s == "crash") return FaultSpec::Kind::kCrash;
  if (s == "send-omission") return FaultSpec::Kind::kSendOmission;
  if (s == "receive-omission") return FaultSpec::Kind::kReceiveOmission;
  return std::nullopt;
}

const char* corruption_kind_name(CorruptionSpec::Kind kind) {
  return kind == CorruptionSpec::Kind::kClock ? "clock" : "garbage";
}

std::optional<CorruptionSpec::Kind> parse_corruption_kind(const std::string& s) {
  if (s == "clock") return CorruptionSpec::Kind::kClock;
  if (s == "garbage") return CorruptionSpec::Kind::kGarbage;
  return std::nullopt;
}

// The most rounds a plan read from a file may ask for.
constexpr int kMaxRounds = 100000;

// The integer at `key` (`fallback` when absent or not an integer) if it
// lies in [lo, hi].  The check runs on the int64 before narrowing to int, so
// an out-of-range value is rejected instead of wrapping into the domain.
std::optional<int> int_in(const Value& v, const char* key,
                          std::int64_t fallback, int lo, int hi) {
  const std::int64_t x = v.at(key).int_or(fallback);
  if (x < lo || x > hi) return std::nullopt;
  return static_cast<int>(x);
}

}  // namespace

FaultPlan TrialPlan::fault_plan_for(ProcessId p) const {
  FaultPlan plan;
  for (const auto& f : faults) {
    if (f.process != p) continue;
    switch (f.kind) {
      case FaultSpec::Kind::kCrash:
        plan.crash_at = plan.crash_at ? std::min(*plan.crash_at, f.onset)
                                      : f.onset;
        break;
      case FaultSpec::Kind::kSendOmission:
        plan.send_omissions.push_back(
            OmissionRule{.from_round = f.onset,
                         .to_round = f.until,
                         .peer = f.peer,
                         .probability = f.permille / 1000.0});
        break;
      case FaultSpec::Kind::kReceiveOmission:
        plan.receive_omissions.push_back(
            OmissionRule{.from_round = f.onset,
                         .to_round = f.until,
                         .peer = f.peer,
                         .probability = f.permille / 1000.0});
        break;
    }
  }
  return plan;
}

Value corruption_value(const CorruptionSpec& spec) {
  if (spec.kind == CorruptionSpec::Kind::kClock) {
    return clock_corruption(spec.magnitude);
  }
  Rng rng(spec.value_seed);
  return random_value(rng, spec.magnitude, /*max_depth=*/4);
}

Value TrialPlan::to_value() const {
  Value v;
  v["seed"] = Value(static_cast<std::int64_t>(trial_seed));
  v["mode"] = Value(ftss::to_string(mode));
  v["weakened"] = Value(ftss::to_string(weakened));
  if (!protocol.empty()) v["protocol"] = Value(protocol);
  v["n"] = Value(static_cast<std::int64_t>(n));
  v["f"] = Value(static_cast<std::int64_t>(f_budget));
  v["delay"] = Value(static_cast<std::int64_t>(max_extra_delay));
  v["rounds"] = Value(static_cast<std::int64_t>(rounds));
  Value::Array fs;
  for (const auto& f : faults) {
    Value e;
    e["p"] = Value(static_cast<std::int64_t>(f.process));
    e["kind"] = Value(fault_kind_name(f.kind));
    e["onset"] = Value(f.onset);
    if (f.until != FaultSpec::kNoEnd) e["until"] = Value(f.until);
    if (f.peer != OmissionRule::kAllPeers) {
      e["peer"] = Value(static_cast<std::int64_t>(f.peer));
    }
    if (f.permille != 1000) e["permille"] = Value(static_cast<std::int64_t>(f.permille));
    fs.push_back(std::move(e));
  }
  v["faults"] = Value(std::move(fs));
  Value::Array cs;
  for (const auto& c : corruptions) {
    Value e;
    e["p"] = Value(static_cast<std::int64_t>(c.process));
    e["kind"] = Value(corruption_kind_name(c.kind));
    e["magnitude"] = Value(c.magnitude);
    if (c.kind == CorruptionSpec::Kind::kGarbage) {
      e["value_seed"] = Value(static_cast<std::int64_t>(c.value_seed));
    }
    cs.push_back(std::move(e));
  }
  v["corruptions"] = Value(std::move(cs));
  return v;
}

std::optional<TrialPlan> TrialPlan::from_value(const Value& v) {
  if (!v.is_map()) return std::nullopt;
  TrialPlan plan;
  plan.trial_seed = static_cast<std::uint64_t>(v.at("seed").int_or(1));
  auto mode = parse_trial_mode(v.at("mode").string_or(""));
  auto weakened = parse_weakened_kind(v.at("weakened").string_or("none"));
  if (!mode || !weakened) return std::nullopt;
  plan.mode = *mode;
  plan.weakened = *weakened;
  plan.protocol = v.at("protocol").string_or("");
  // f shares n's cap: every protocol's final_round is f + 1, so f must stay
  // non-negative and far from int overflow.
  const auto n = int_in(v, "n", 0, 1, 128);
  const auto f_budget = int_in(v, "f", 1, 0, 128);
  const auto delay = int_in(v, "delay", 0, 0, 64);
  const auto rounds = int_in(v, "rounds", 0, 1, kMaxRounds);
  if (!n || !f_budget || !delay || !rounds) return std::nullopt;
  plan.n = *n;
  plan.f_budget = *f_budget;
  plan.max_extra_delay = *delay;
  plan.rounds = *rounds;
  const Value& fs = v.at("faults");
  if (fs.is_array()) {
    for (const auto& e : fs.as_array()) {
      auto kind = parse_fault_kind(e.at("kind").string_or(""));
      const auto p = int_in(e, "p", -1, 0, plan.n - 1);
      // kAllPeers is -1, so [kAllPeers, n) is "every peer, or one process".
      const auto peer = int_in(e, "peer", OmissionRule::kAllPeers,
                               OmissionRule::kAllPeers, plan.n - 1);
      const auto permille = int_in(e, "permille", 1000, 1, 1000);
      if (!kind || !p || !peer || !permille) return std::nullopt;
      FaultSpec f;
      f.process = *p;
      f.kind = *kind;
      f.onset = e.at("onset").int_or(1);
      f.until = e.at("until").int_or(FaultSpec::kNoEnd);
      f.peer = *peer;
      f.permille = *permille;
      // An onset past the rounds cap plus one never fires, and the event
      // leg turns a crash onset into a virtual time (onset · period), so
      // it must stay far from int64 overflow.
      if (f.onset < 1 || f.onset > kMaxRounds + 1 || f.until < f.onset) {
        return std::nullopt;
      }
      plan.faults.push_back(f);
    }
  }
  const Value& cs = v.at("corruptions");
  if (cs.is_array()) {
    for (const auto& e : cs.as_array()) {
      auto kind = parse_corruption_kind(e.at("kind").string_or(""));
      const auto p = int_in(e, "p", -1, 0, plan.n - 1);
      if (!kind || !p) return std::nullopt;
      CorruptionSpec c;
      c.process = *p;
      c.kind = *kind;
      c.magnitude = e.at("magnitude").int_or(0);
      c.value_seed = static_cast<std::uint64_t>(e.at("value_seed").int_or(0));
      // Garbage integers are drawn from [-magnitude, magnitude], which a
      // negative magnitude inverts (and INT64_MIN cannot negate).  A clock
      // magnitude may be any int64: restore clamps it.
      if (c.kind == CorruptionSpec::Kind::kGarbage && c.magnitude < 0) {
        return std::nullopt;
      }
      plan.corruptions.push_back(c);
    }
  }
  return plan;
}

std::string TrialPlan::describe() const {
  std::ostringstream os;
  os << "trial seed=" << trial_seed << " mode=" << ftss::to_string(mode);
  if (weakened != WeakenedKind::kNone) {
    os << " weakened=" << ftss::to_string(weakened);
  }
  if (mode == TrialMode::kCompiled) {
    os << " protocol=" << protocol << " f=" << f_budget;
  }
  os << " n=" << n << " delay=" << max_extra_delay << " rounds=" << rounds
     << "\n";
  for (const auto& f : faults) {
    os << "  fault p" << f.process << ": " << fault_kind_name(f.kind);
    if (f.kind == FaultSpec::Kind::kCrash) {
      os << " at round " << f.onset;
    } else {
      os << " rounds [" << f.onset << ", ";
      if (f.until == FaultSpec::kNoEnd) {
        os << "inf";
      } else {
        os << f.until;
      }
      os << "]";
      if (f.peer != OmissionRule::kAllPeers) os << " peer " << f.peer;
      if (f.permille != 1000) os << " p=" << f.permille / 1000.0;
    }
    os << "\n";
  }
  for (const auto& c : corruptions) {
    os << "  corrupt p" << c.process << ": ";
    if (c.kind == CorruptionSpec::Kind::kClock) {
      os << "c_p := " << c.magnitude;
    } else {
      os << "garbage(seed=" << c.value_seed << ", magnitude=" << c.magnitude
         << ") = " << corruption_value(c).to_string();
    }
    os << "\n";
  }
  if (faults.empty() && corruptions.empty()) os << "  (no adversary)\n";
  return os.str();
}

std::optional<TrialPlan> load_plan_file(const std::string& path,
                                        std::string* error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  const std::optional<Value> parsed = Value::parse(*text);
  if (!parsed) {
    *error = path + " is not valid plan JSON";
    return std::nullopt;
  }
  std::optional<TrialPlan> plan = TrialPlan::from_value(*parsed);
  if (!plan) *error = path + " is not a well-formed plan";
  return plan;
}

const char* to_string(TrialMode mode) {
  switch (mode) {
    case TrialMode::kRoundAgreementSync:
      return "round-agreement";
    case TrialMode::kRoundAgreementJitter:
      return "round-agreement-jitter";
    default:
      return "compiled";
  }
}

const char* to_string(WeakenedKind kind) {
  switch (kind) {
    case WeakenedKind::kNone:
      return "none";
    case WeakenedKind::kRoundAgreementMaxRule:
      return "ra-max";
    default:
      return "no-tags";
  }
}

std::optional<TrialMode> parse_trial_mode(const std::string& s) {
  if (s == "round-agreement") return TrialMode::kRoundAgreementSync;
  if (s == "round-agreement-jitter") return TrialMode::kRoundAgreementJitter;
  if (s == "compiled") return TrialMode::kCompiled;
  return std::nullopt;
}

std::optional<WeakenedKind> parse_weakened_kind(const std::string& s) {
  if (s == "none") return WeakenedKind::kNone;
  if (s == "ra-max") return WeakenedKind::kRoundAgreementMaxRule;
  if (s == "no-tags") return WeakenedKind::kCompilerNoRoundTags;
  return std::nullopt;
}

}  // namespace ftss
