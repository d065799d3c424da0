// Deterministic seeded random number generation.
//
// Every simulator run is parameterized by a single seed so that failures,
// corruptions, message delays and workload choices are exactly reproducible
// in tests and benchmarks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace ftss {

// splitmix64's increment, the odd integer nearest 2^64 / golden ratio.
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

// One splitmix64 step from state x: its finalizer applied to x + gamma.  A
// stateless hash for call sites that need one independent draw per key
// without keeping an Rng; the k-th output from state s is
// splitmix64(s + (k - 1) * gamma).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // True with probability p.
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < p;
  }

  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Derive an independent child generator; used to give each process its own
  // stream so adding one process does not perturb the others' randomness.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  // Pick k distinct values out of 0..n-1.  k is clamped to [0, n]: asking
  // for more distinct values than exist yields all n in random order (the
  // unclamped loop would call uniform(i, n-1) with lo > hi, which is
  // undefined behavior for std::uniform_int_distribution).
  std::vector<int> sample(int n, int k) {
    if (n < 0) n = 0;
    k = std::min(std::max(k, 0), n);
    std::vector<int> all(n);
    for (int i = 0; i < n; ++i) all[i] = i;
    for (int i = 0; i < k; ++i) {
      int j = static_cast<int>(uniform(i, n - 1));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ftss
