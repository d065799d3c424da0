// libFuzzer harness for the cross-simulator differential driver.
//
// Fuzz bytes are decoded into a small, well-formed TrialPlan (bounded n and
// rounds so each execution stays in the microsecond range) and run through
// the lock-step differential oracle.  Any finding on an applicable plan —
// a replay-books note or a history diff between the sync and event engines
// — is a harness/simulator bug and traps; inapplicable plans (ambiguous
// schedules) are legitimate and ignored.
#include <cstddef>
#include <cstdint>

#include "conform/metamorphic.h"

namespace {

struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;

  std::uint8_t next() { return at < size ? data[at++] : 0; }
  std::uint64_t next64() {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | next();
    return x;
  }
};

const char* const kProtocols[] = {
    "floodset-consensus", "interactive-consistency", "reliable-broadcast",
    "leader-election",    "atomic-commit",
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteReader r{data, size};
  ftss::TrialPlan plan;
  plan.trial_seed = r.next64();
  switch (r.next() % 3) {
    case 0: plan.mode = ftss::TrialMode::kRoundAgreementSync; break;
    case 1: plan.mode = ftss::TrialMode::kRoundAgreementJitter; break;
    default:
      plan.mode = ftss::TrialMode::kCompiled;
      plan.protocol = kProtocols[r.next() % 5];
      plan.f_budget = 1 + r.next() % 2;
      break;
  }
  plan.n = 2 + r.next() % 6;
  plan.rounds = 1 + r.next() % 12;
  plan.max_extra_delay = r.next() % 4;

  const int fault_count = r.next() % 4;
  for (int i = 0; i < fault_count; ++i) {
    ftss::FaultSpec f;
    f.process = r.next() % plan.n;
    switch (r.next() % 3) {
      case 0: f.kind = ftss::FaultSpec::Kind::kCrash; break;
      case 1: f.kind = ftss::FaultSpec::Kind::kSendOmission; break;
      default: f.kind = ftss::FaultSpec::Kind::kReceiveOmission; break;
    }
    f.onset = 1 + r.next() % plan.rounds;
    if (f.kind != ftss::FaultSpec::Kind::kCrash) {
      f.until = f.onset + r.next() % 6;
      if (r.next() % 2) f.peer = r.next() % plan.n;
      f.permille = 1 + r.next() % 1000;
    }
    plan.faults.push_back(f);
  }

  const int corruption_count = r.next() % 3;
  for (int i = 0; i < corruption_count; ++i) {
    ftss::CorruptionSpec c;
    c.process = r.next() % plan.n;
    if (r.next() % 2) {
      c.kind = ftss::CorruptionSpec::Kind::kClock;
      c.magnitude = static_cast<std::int64_t>(r.next64() % 2000000) - 1000000;
    } else {
      c.kind = ftss::CorruptionSpec::Kind::kGarbage;
      c.magnitude = 1 + r.next() % 1000;
      c.value_seed = r.next64();
    }
    plan.corruptions.push_back(c);
  }

  const ftss::OracleResult result = ftss::check_lockstep(plan);
  if (result.applicable && !result.ok()) __builtin_trap();
  return 0;
}
