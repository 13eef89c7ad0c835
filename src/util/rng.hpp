/// \file rng.hpp
/// \brief Deterministic, splittable pseudo-random number generation.
///
/// E2C requires bit-identical replay of a simulation given a seed: the
/// step-debugging workflow of the paper (pause / "Increment" / reset) only
/// makes sense if re-running a scenario reproduces the same trajectory.
/// std::mt19937 distributions are not guaranteed identical across standard
/// library implementations, so E2C ships its own generator (xoshiro256**,
/// public-domain algorithm by Blackman & Vigna) and its own distribution
/// transforms. Streams can be split deterministically so that parallel
/// experiment replications never share a stream.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2c::util {

/// SplitMix64 step: used to expand a 64-bit seed into generator state.
/// Exposed because tests and the workload generator use it for stable
/// per-entity sub-seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** generator with deterministic seeding and stream splitting.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Equal seeds give equal
  /// streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  // The per-task draws of trace generation (next_u64, next_double, uniform,
  // exponential, unit_weight_index) are defined here so they inline into the
  // generator's loop. The build is ISO C++ without fast-math, so inlining
  // leaves every result bit-identical (test_rng pins the streams).

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Exponentially distributed value with rate \p lambda (> 0).
  /// Mean is 1/lambda; used for Poisson arrival inter-times.
  [[nodiscard]] double exponential(double lambda) noexcept {
    // Inverse-CDF; next_double() < 1 so the log argument is > 0.
    return -std::log(1.0 - next_double()) / lambda;
  }

  /// Normally distributed value (Box–Muller, deterministic two-call cache).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Bernoulli trial with success probability \p p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to weights, by
  /// a linear scan. \p total must be weight_total(weights); callers drawing
  /// many indices from one vector sum it once. Zero total weight falls back
  /// to uniform choice. Requires non-empty weights; negative weights count
  /// as zero. For unit weights use unit_weight_index, which is equal draw
  /// for draw and O(1).
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights,
                                           double total) noexcept;

  /// Samples an index in [0, n) over n unit weights: min(floor(u * n), n - 1)
  /// for a single next_double() value u. Requires 1 <= n < 2^53.
  ///
  /// This is bit-identical to weighted_index over n ones, not an
  /// approximation, and consumes the same one value of the stream. That
  /// scan starts from target = u * n, compares it with 1.0 and subtracts
  /// 1.0. For 1 <= x < 2^53 the difference x - 1.0 is exact, so after i
  /// steps target is exactly u * n - i and the scan stops at i =
  /// floor(u * n). Since u < 1, the rounded product u * n is below n for
  /// every n < 2^53, so the clamp, like the scan's fall-through to the last
  /// index, never fires.
  [[nodiscard]] std::size_t unit_weight_index(std::size_t n) noexcept {
    return std::min(static_cast<std::size_t>(next_double() * static_cast<double>(n)), n - 1);
  }

  /// Sum of the positive entries of \p weights (what weighted_index draws
  /// against).
  [[nodiscard]] static double weight_total(const std::vector<double>& weights) noexcept;

  /// Returns a new independent generator derived from this one's stream.
  /// Splitting is deterministic: the Nth split of a given generator is the
  /// same on every run.
  [[nodiscard]] Rng split() noexcept;

  /// Fisher–Yates shuffle of a vector, in place.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// The seed this generator was constructed with (for reporting).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace e2c::util
