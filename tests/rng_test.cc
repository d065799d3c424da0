#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace ftss {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1'000'000) != b.uniform(0, 1'000'000)) ++differences;
  }
  EXPECT_GT(differences, 90);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformSinglePointRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(9, 9), 9);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SampleReturnsDistinctInRange) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.sample(10, 4);
    ASSERT_EQ(s.size(), 4u);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 10);
    }
  }
}

TEST(Rng, SampleFullPopulationIsPermutation) {
  Rng rng(7);
  auto s = rng.sample(6, 6);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 6u);
}

TEST(Rng, SampleClampsOversizedRequests) {
  // Regression: sample(n, k) with k > n used to walk past the end of the
  // candidate pool (UB caught by ASan).  It now clamps to the population.
  Rng rng(9);
  auto s = rng.sample(3, 5);
  ASSERT_EQ(s.size(), 3u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct, (std::set<int>{0, 1, 2}));
}

TEST(Rng, SampleDegenerateSizesAreEmpty) {
  Rng rng(10);
  EXPECT_TRUE(rng.sample(0, 2).empty());
  EXPECT_TRUE(rng.sample(5, 0).empty());
  EXPECT_TRUE(rng.sample(5, -1).empty());
  EXPECT_TRUE(rng.sample(-2, 3).empty());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(8);
  Rng child = parent.fork();
  // The child stream should not replay the parent's continuation.
  Rng parent2(8);
  (void)parent2.fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform(0, 1'000'000) == parent.uniform(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 10);
}

// The reference splitmix64 stream from state 0 (Vigna's splitmix64.c):
// its k-th output is splitmix64((k - 1) * gamma).
TEST(Splitmix64, MatchesTheReferenceStream) {
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(kSplitmixGamma), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(2 * kSplitmixGamma), 0x06c45d188009454fULL);
}

}  // namespace
}  // namespace ftss
