/// \file stats.hpp
/// \brief Descriptive statistics used by reports, experiments and the
/// education (survey/quiz) substrate.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace e2c::util {

/// Streaming accumulator (Welford) for mean/variance without storing samples.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double value) noexcept;

  /// Number of observations so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  [[nodiscard]] double variance() const noexcept;

  /// Square root of variance().
  [[nodiscard]] double stddev() const noexcept;

  /// Smallest observation; NaN when empty.
  [[nodiscard]] double min() const noexcept { return min_; }

  /// Largest observation; NaN when empty.
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of \p values; 0 for an empty vector.
[[nodiscard]] double mean(const std::vector<double>& values) noexcept;

/// Median (linear-interpolated between middle elements for even sizes);
/// 0 for an empty vector. Does not modify the input.
[[nodiscard]] double median(std::vector<double> values) noexcept;

/// Unbiased sample standard deviation; 0 with fewer than two values.
[[nodiscard]] double stddev(const std::vector<double>& values) noexcept;

/// Percentile in [0, 100] with linear interpolation (NIST R-7 definition);
/// 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> values, double pct) noexcept;

/// Two-sided 95% critical value of Student's t distribution with \p df
/// degrees of freedom (tabulated for df <= 30, coarser breakpoints to
/// df = 120, then the normal limit 1.96); 0 when df == 0.
[[nodiscard]] double student_t95(std::size_t df) noexcept;

/// Half-width of the 95% confidence interval of the mean,
/// t_{0.975, n-1} * s / sqrt(n); 0 with fewer than two values. Uses the
/// small-sample Student-t critical value — experiment replication counts are
/// routinely in the single digits, where the z=1.96 normal approximation
/// understates the interval.
[[nodiscard]] double ci95_half_width(const std::vector<double>& values) noexcept;

/// Jain's fairness index over non-negative allocations:
/// (sum x)^2 / (n * sum x^2). Equals 1 for perfectly equal allocations and
/// approaches 1/n in the most unfair case. Returns 1 for empty or all-zero
/// input (vacuously fair).
[[nodiscard]] double jain_fairness(std::span<const double> values) noexcept;

/// Relative improvement (b - a) / a as a percentage; nullopt when a == 0.
[[nodiscard]] std::optional<double> percent_improvement(double a, double b) noexcept;

}  // namespace e2c::util
