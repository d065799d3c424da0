#include "check/adversary.h"

#include <vector>

#include "protocols/suite.h"
#include "util/rng.h"

namespace ftss {

namespace {

// Sampled systems have kMinN..kMaxN processes; jitter trials draw
// max_extra_delay from [1, kMaxJitter].
constexpr int kMinN = 3;
constexpr int kMaxN = 8;
constexpr int kMaxJitter = 3;

// A corrupted round counter whose magnitude spans everything from off-by-one
// to astronomically far from the actual round.
std::int64_t random_clock(Rng& rng) {
  std::int64_t scale = 1;
  const int exponent = static_cast<int>(rng.uniform(0, 12));
  for (int i = 0; i < exponent; ++i) scale *= 10;
  return rng.uniform(-scale, scale);
}

CorruptionSpec sample_corruption(Rng& rng, ProcessId p) {
  CorruptionSpec c;
  c.process = p;
  if (rng.chance(0.55)) {
    c.kind = CorruptionSpec::Kind::kClock;
    c.magnitude = random_clock(rng);
  } else {
    c.kind = CorruptionSpec::Kind::kGarbage;
    c.magnitude = 1'000'000'000'000LL;
    c.value_seed = rng.engine()();
  }
  return c;
}

// An omission window: onset in [1, onset_max]; bounded end in
// [onset, window_max], or open-ended when window_max permits it.
void sample_window(Rng& rng, Round onset_max, Round window_max,
                   bool allow_open, FaultSpec& f) {
  f.onset = rng.uniform(1, onset_max);
  if (allow_open && rng.chance(0.35)) {
    f.until = FaultSpec::kNoEnd;
  } else {
    f.until = rng.uniform(f.onset, window_max);
  }
}

FaultSpec sample_ra_fault(Rng& rng, ProcessId p, int n, Round onset_max,
                          Round window_max, bool allow_open) {
  FaultSpec f;
  f.process = p;
  switch (rng.uniform(0, 2)) {
    case 0:
      f.kind = FaultSpec::Kind::kCrash;
      f.onset = rng.uniform(1, onset_max);
      break;
    case 1:
      f.kind = FaultSpec::Kind::kSendOmission;
      sample_window(rng, onset_max, window_max, allow_open, f);
      break;
    default:
      f.kind = FaultSpec::Kind::kReceiveOmission;
      sample_window(rng, onset_max, window_max, allow_open, f);
      break;
  }
  if (f.kind != FaultSpec::Kind::kCrash) {
    if (rng.chance(0.3)) {
      ProcessId peer = static_cast<ProcessId>(rng.uniform(0, n - 1));
      if (peer != p) f.peer = peer;
    }
    if (rng.chance(0.45)) {
      f.permille = static_cast<int>(rng.uniform(100, 999));
    }
  }
  return f;
}

void sample_round_agreement(Rng& rng, bool jitter, TrialPlan& plan) {
  plan.max_extra_delay =
      jitter ? static_cast<int>(rng.uniform(1, kMaxJitter)) : 0;
  // Jitter trials bound every fault to the first kFaultEpoch rounds and run
  // long enough past it that the eventual-agreement oracle has a judgeable
  // tail (see check_round_agreement_eventual's inconclusive rule).
  const Round kFaultEpoch = 15;
  const Round onset_max = jitter ? kFaultEpoch : 20;
  const Round window_max = jitter ? kFaultEpoch : 30;
  plan.rounds = jitter ? static_cast<int>(kFaultEpoch + 35 +
                                          10 * plan.max_extra_delay)
                       : 40;
  const int faulty = static_cast<int>(rng.uniform(0, plan.n - 1));
  for (int p : rng.sample(plan.n, faulty)) {
    plan.faults.push_back(sample_ra_fault(rng, p, plan.n, onset_max,
                                          window_max, /*allow_open=*/!jitter));
  }
  for (ProcessId p = 0; p < plan.n; ++p) {
    if (rng.chance(0.75)) plan.corruptions.push_back(sample_corruption(rng, p));
  }
}

void sample_compiled(Rng& rng, TrialPlan& plan) {
  plan.f_budget = static_cast<int>(rng.uniform(1, 2));
  plan.n = static_cast<int>(rng.uniform(plan.f_budget + 2, kMaxN));
  const auto& suite = protocol_suite();
  plan.protocol =
      suite[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(suite.size()) - 1))].name;
  const int final_round = plan.f_budget + 1;  // every shipped Π runs f+1 rounds
  plan.rounds = 24 + 10 * final_round;
  const int faulty = static_cast<int>(rng.uniform(0, plan.f_budget));
  for (int p : rng.sample(plan.n, faulty)) {
    FaultSpec f;
    f.process = p;
    switch (rng.uniform(0, 2)) {
      case 0:
        f.kind = FaultSpec::Kind::kCrash;
        f.onset = rng.uniform(1, 12);
        break;
      case 1:
        // Receive omission with free window / peer / probability: the faulty
        // process's own view degrades, correct processes' views do not.
        f.kind = FaultSpec::Kind::kReceiveOmission;
        sample_window(rng, 12, plan.rounds, /*allow_open=*/true, f);
        if (rng.chance(0.3)) {
          ProcessId peer = static_cast<ProcessId>(rng.uniform(0, plan.n - 1));
          if (peer != p) f.peer = peer;
        }
        if (rng.chance(0.4)) {
          f.permille = static_cast<int>(rng.uniform(100, 999));
        }
        break;
      default:
        // Send omission only as a consistent full-broadcast window: every
        // correct process misses the same messages, which Π's crash model
        // covers (the window behaves like a crash + recovery at the tag
        // level and is healed by the suspect reset at iteration boundaries).
        f.kind = FaultSpec::Kind::kSendOmission;
        sample_window(rng, 12, plan.rounds, /*allow_open=*/true, f);
        break;
    }
    plan.faults.push_back(f);
  }
  for (ProcessId p = 0; p < plan.n; ++p) {
    if (rng.chance(0.7)) plan.corruptions.push_back(sample_corruption(rng, p));
  }
}

// The §2.4 "insidious problem" shape that the ROUND-tag defense exists for:
// one receive-deaf process whose round counter free-runs from a stale
// (negative) value, replaying inputs of long-gone iterations.  With the tag
// filter on this is harmless; with kCompilerNoRoundTags it must be caught.
void sample_stale_poison(Rng& rng, TrialPlan& plan) {
  plan.f_budget = 1;
  plan.n = static_cast<int>(rng.uniform(kMinN, kMaxN));
  plan.protocol = "floodset-consensus";  // min-of-values: stale inputs win
  plan.rounds = 24 + 10 * (plan.f_budget + 1);
  const ProcessId stale = static_cast<ProcessId>(rng.uniform(0, plan.n - 1));
  plan.faults.push_back(FaultSpec{.process = stale,
                                  .kind = FaultSpec::Kind::kReceiveOmission,
                                  .onset = 1});
  plan.corruptions.push_back(
      CorruptionSpec{.process = stale,
                     .kind = CorruptionSpec::Kind::kClock,
                     .magnitude = -rng.uniform(100, 100000)});
  for (ProcessId p = 0; p < plan.n; ++p) {
    if (p != stale && rng.chance(0.5)) {
      plan.corruptions.push_back(sample_corruption(rng, p));
    }
  }
}

}  // namespace

TrialPlan sample_trial(const AdversaryConfig& config, WeakenedKind weakened,
                       std::uint64_t trial_seed) {
  Rng rng(trial_seed);
  TrialPlan plan;
  plan.trial_seed = trial_seed;
  plan.weakened = weakened;
  plan.n = static_cast<int>(rng.uniform(kMinN, kMaxN));

  if (weakened == WeakenedKind::kCompilerNoRoundTags) {
    plan.mode = TrialMode::kCompiled;
    if (rng.chance(0.85)) {
      sample_stale_poison(rng, plan);
    } else {
      sample_compiled(rng, plan);
    }
    return plan;
  }

  std::vector<TrialMode> modes;
  if (config.allow_sync) {
    modes.insert(modes.end(), 2, TrialMode::kRoundAgreementSync);
  }
  if (config.allow_jitter) modes.push_back(TrialMode::kRoundAgreementJitter);
  // A weakened Figure 1 never runs inside the compiler, so keep ra-max
  // trials on the round-agreement modes where the weakening is live.
  if (config.allow_compiled && weakened == WeakenedKind::kNone) {
    modes.insert(modes.end(), 2, TrialMode::kCompiled);
  }
  if (modes.empty()) modes.push_back(TrialMode::kRoundAgreementSync);
  plan.mode = modes[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(modes.size()) - 1))];

  switch (plan.mode) {
    case TrialMode::kRoundAgreementSync:
      sample_round_agreement(rng, /*jitter=*/false, plan);
      break;
    case TrialMode::kRoundAgreementJitter:
      sample_round_agreement(rng, /*jitter=*/true, plan);
      break;
    case TrialMode::kCompiled:
      sample_compiled(rng, plan);
      break;
  }
  return plan;
}

std::uint64_t trial_seed_for(std::uint64_t run_seed, int index) {
  // The index-th (0-based) splitmix64 output from state run_seed; masked to
  // stay positive through the int64 round-trip in plan serialization.
  const std::uint64_t z =
      splitmix64(run_seed +
                 kSplitmixGamma * static_cast<std::uint64_t>(index)) &
      0x7fffffffffffffffULL;
  return z == 0 ? 1 : z;
}

}  // namespace ftss
