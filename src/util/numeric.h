// Small arithmetic helpers shared across protocols.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace ftss {

// Floored modulo: result always in [0, m) for m > 0, even for negative x.
// Systemic failures can set round counters to arbitrary (including negative)
// values, and the paper's normalize(c) = c mod final_round + 1 must still
// land in 1..final_round.
constexpr std::int64_t floor_mod(std::int64_t x, std::int64_t m) {
  std::int64_t r = x % m;
  return r < 0 ? r + m : r;
}

// Floored division, matching floor_mod: x == floor_div(x,m)*m + floor_mod(x,m).
constexpr std::int64_t floor_div(std::int64_t x, std::int64_t m) {
  std::int64_t q = x / m;
  std::int64_t r = x % m;
  return (r != 0 && ((r < 0) != (m < 0))) ? q - 1 : q;
}

// The paper's normalize: map an unbounded round counter into the range
// 1..final_round used by the terminating protocol Pi (Figure 3).
constexpr std::int64_t normalize_round(std::int64_t c, std::int64_t final_round) {
  return floor_mod(c, final_round) + 1;
}

// Round counters are unbounded in the model, but an adversarial initial
// value of INT64_MAX would make the max+1 update overflow (UB).  Two clamp
// levels avoid this without perturbing semantics:
//  * restore_state clamps a corrupted counter to kRoundClampMagnitude, so
//    every counter in the system starts within a safe range;
//  * message tags are clamped to the strictly larger kTagClampMagnitude, so
//    a legitimately adopted tag (restore clamp + execution length) always
//    passes through unchanged — clamping tags at the same level as restores
//    would freeze the max+1 rule at the clamp boundary.
inline constexpr std::int64_t kRoundClampMagnitude = 1'000'000'000'000'000LL;
inline constexpr std::int64_t kTagClampMagnitude = 10 * kRoundClampMagnitude;

constexpr std::int64_t clamp_restored_round(std::int64_t c) {
  return std::clamp(c, -kRoundClampMagnitude, kRoundClampMagnitude);
}

constexpr std::int64_t clamp_round_tag(std::int64_t c) {
  return std::clamp(c, -kTagClampMagnitude, kTagClampMagnitude);
}

// All of `text` as a base-10 integer in [lo, hi], or nullopt: an empty
// string, a leading '+' or space, trailing characters, overflow of T and
// values outside the range are all rejected.
template <typename T>
std::optional<T> parse_integer(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace ftss
