#include "util/numeric.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace ftss {
namespace {

TEST(FloorMod, PositiveOperands) {
  EXPECT_EQ(floor_mod(7, 3), 1);
  EXPECT_EQ(floor_mod(6, 3), 0);
  EXPECT_EQ(floor_mod(0, 5), 0);
}

TEST(FloorMod, NegativeDividend) {
  EXPECT_EQ(floor_mod(-1, 3), 2);
  EXPECT_EQ(floor_mod(-3, 3), 0);
  EXPECT_EQ(floor_mod(-7, 3), 2);
}

TEST(FloorDiv, MatchesFloorModIdentity) {
  for (std::int64_t x = -20; x <= 20; ++x) {
    for (std::int64_t m : {1, 2, 3, 7}) {
      EXPECT_EQ(floor_div(x, m) * m + floor_mod(x, m), x)
          << "x=" << x << " m=" << m;
      EXPECT_GE(floor_mod(x, m), 0);
      EXPECT_LT(floor_mod(x, m), m);
    }
  }
}

TEST(NormalizeRound, MapsCounterIntoProtocolRounds) {
  // final_round = 4: counters 0,1,2,3 -> rounds 1,2,3,4; then wraps.
  EXPECT_EQ(normalize_round(0, 4), 1);
  EXPECT_EQ(normalize_round(1, 4), 2);
  EXPECT_EQ(normalize_round(3, 4), 4);
  EXPECT_EQ(normalize_round(4, 4), 1);
  EXPECT_EQ(normalize_round(11, 4), 4);
}

TEST(NormalizeRound, HandlesCorruptedNegativeCounters) {
  EXPECT_EQ(normalize_round(-1, 4), 4);
  EXPECT_EQ(normalize_round(-4, 4), 1);
  EXPECT_EQ(normalize_round(-1000001, 4), normalize_round(-1000001 + 4 * 1000, 4));
}

TEST(NormalizeRound, AlwaysInRange) {
  for (std::int64_t c = -50; c <= 50; ++c) {
    for (std::int64_t fr : {1, 2, 5, 9}) {
      const auto k = normalize_round(c, fr);
      EXPECT_GE(k, 1);
      EXPECT_LE(k, fr);
    }
  }
}

TEST(ClampRound, PassesThroughNormalValues) {
  EXPECT_EQ(clamp_restored_round(0), 0);
  EXPECT_EQ(clamp_restored_round(-12345), -12345);
  EXPECT_EQ(clamp_round_tag(987654321), 987654321);
}

TEST(ClampRound, ClampsAdversarialExtremes) {
  EXPECT_EQ(clamp_restored_round(std::numeric_limits<std::int64_t>::max()),
            kRoundClampMagnitude);
  EXPECT_EQ(clamp_restored_round(std::numeric_limits<std::int64_t>::min()),
            -kRoundClampMagnitude);
  EXPECT_EQ(clamp_round_tag(std::numeric_limits<std::int64_t>::max()),
            kTagClampMagnitude);
  // The clamped value + 1 must not overflow (the max+1 rule's safety).
  EXPECT_GT(clamp_round_tag(std::numeric_limits<std::int64_t>::max()) + 1, 0);
}

TEST(ClampRound, TagClampStrictlyAboveRestoreClamp) {
  // A restored counter plus any realistic execution length must pass through
  // the tag clamp unchanged, or the max+1 rule would freeze at the boundary.
  EXPECT_GT(kTagClampMagnitude, kRoundClampMagnitude + 1'000'000'000LL);
  EXPECT_EQ(clamp_round_tag(kRoundClampMagnitude + 12345),
            kRoundClampMagnitude + 12345);
}

TEST(ParseInteger, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(parse_integer("0", 0, 10), 0);
  EXPECT_EQ(parse_integer("10", 0, 10), 10);
  EXPECT_EQ(parse_integer("-3", -5, 5), -3);
  EXPECT_EQ(parse_integer("007", 0, 10), 7);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551615", 0,
                                         UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(parse_integer<std::int64_t>("-9223372036854775808", INT64_MIN,
                                        INT64_MAX),
            INT64_MIN);
}

TEST(ParseInteger, RejectsAnythingButOneWholeNumber) {
  for (const char* text : {"", "abc", "12abc", "1.5", "1e3", " 1", "1 ", "+1",
                           "0x10", "-", "--1"}) {
    EXPECT_EQ(parse_integer(text, INT32_MIN, INT32_MAX), std::nullopt)
        << "'" << text << "'";
  }
}

TEST(ParseInteger, RejectsValuesOutsideTheRange) {
  EXPECT_EQ(parse_integer("-5", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("101", 0, 100), std::nullopt);
  EXPECT_EQ(parse_integer("0", 1, 100), std::nullopt);
  // Overflow of the target type, and a sign an unsigned type cannot hold.
  EXPECT_EQ(parse_integer("2147483648", INT32_MIN, INT32_MAX), std::nullopt);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551616", 0,
                                         UINT64_MAX),
            std::nullopt);
  EXPECT_EQ(parse_integer<std::uint64_t>("-1", 0, UINT64_MAX), std::nullopt);
}

}  // namespace
}  // namespace ftss
