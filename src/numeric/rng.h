// Deterministic pseudo-random number generation.
//
// Every stochastic algorithm in the library (differential evolution,
// simulated annealing, NSGA-II, Monte-Carlo yield analysis, synthetic
// measurement noise) takes an explicit Rng so that results are reproducible
// run-to-run and platform-to-platform.  xoshiro256** is small, fast, and has
// well-understood statistical quality.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace gnsslna::numeric {

/// xoshiro256** generator with splitmix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    // splitmix64 expands one 64-bit seed into a full 256-bit state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % n;
  }

  /// Standard normal variate (Box-Muller; one value per call, no caching so
  /// the stream position stays simple to reason about).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Normal variate with mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Derives an independent child generator (for per-trial seeding).
  Rng fork() { return Rng(next_u64()); }

  /// Counter-based derived stream: an independent child generator that is a
  /// pure function of the current state and the stream index.  Unlike
  /// fork(), split() does not advance the parent, so split(i) yields the
  /// same stream no matter how many other streams were split before it or
  /// which thread asks — the primitive behind per-candidate reproducibility
  /// in the parallel evaluation paths (see numeric/parallel.h).
  Rng split(std::uint64_t stream) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const std::uint64_t word : state_) h = mix64(h ^ word);
    return Rng(mix64(h + 0x9E3779B97F4A7C15ULL * (stream + 1)));
  }

 private:
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace gnsslna::numeric
