#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2c::util {

void RunningStats::add(double value) noexcept {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double median(std::vector<double> values) noexcept {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double stddev(const std::vector<double>& values) noexcept {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - m) * (v - m);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double percentile(std::vector<double> values, double pct) noexcept {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (pct <= 0.0) return values.front();
  if (pct >= 100.0) return values.back();
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double student_t95(std::size_t df) noexcept {
  // Two-sided 95% critical values of Student's t distribution. With the
  // replication counts typical of simulation experiments (3-30 runs), the
  // normal approximation z=1.96 understates the interval badly — at n=4
  // (df=3) the true factor is 3.182, a 62% wider interval. z remains the
  // large-sample limit.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  if (df <= 40) return 2.021;
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.96;
}

double ci95_half_width(const std::vector<double>& values) noexcept {
  if (values.size() < 2) return 0.0;
  return student_t95(values.size() - 1) * stddev(values) /
         std::sqrt(static_cast<double>(values.size()));
}

double jain_fairness(std::span<const double> values) noexcept {
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

std::optional<double> percent_improvement(double a, double b) noexcept {
  if (a == 0.0) return std::nullopt;
  return (b - a) / a * 100.0;
}

}  // namespace e2c::util
