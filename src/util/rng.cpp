#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace e2c::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t value = next_u64();
  while (value >= limit) value = next_u64();
  return lo + static_cast<std::int64_t>(value % span);
}

double Rng::normal(double mean, double stddev) noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) noexcept { return next_double() < p; }

double Rng::weight_total(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  return total;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights, double total) noexcept {
  if (total <= 0.0) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(weights.size()) - 1));
  }
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

Rng Rng::split() noexcept {
  // Derive a child seed from the parent stream; deterministic and
  // collision-resistant enough for experiment replication fan-out.
  std::uint64_t child_seed = next_u64() ^ 0xD2B74407B1CE6E93ULL;
  return Rng(child_seed);
}

}  // namespace e2c::util
