// Unit tests for descriptive statistics (util/stats.hpp).
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using e2c::util::RunningStats;

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats left;
  RunningStats right;
  RunningStats all;
  for (double v : {1.0, 2.0, 3.0}) {
    left.add(v);
    all.add(v);
  }
  for (double v : {10.0, 20.0}) {
    right.add(v);
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), 1.0);
  EXPECT_DOUBLE_EQ(left.max(), 20.0);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(e2c::util::mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(e2c::util::mean({}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(e2c::util::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(e2c::util::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(e2c::util::median({}), 0.0);
  EXPECT_DOUBLE_EQ(e2c::util::median({7.0}), 7.0);
}

TEST(Stats, StddevKnown) {
  EXPECT_NEAR(e2c::util::stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(e2c::util::stddev({5.0}), 0.0);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(e2c::util::percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(e2c::util::percentile(values, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(e2c::util::percentile(values, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(e2c::util::percentile(values, 25.0), 17.5);
}

TEST(Stats, StudentT95CriticalValues) {
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(0), 0.0);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(1), 12.706);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(3), 3.182);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(30), 2.042);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(40), 2.021);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(60), 2.000);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(120), 1.980);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(121), 1.96);
  EXPECT_DOUBLE_EQ(e2c::util::student_t95(100000), 1.96);
  // Monotone non-increasing in df.
  for (std::size_t df = 2; df <= 130; ++df) {
    EXPECT_LE(e2c::util::student_t95(df), e2c::util::student_t95(df - 1)) << "df=" << df;
  }
}

TEST(Stats, Ci95HalfWidth) {
  // n=4 -> df=3 -> t=3.182 (not the normal z=1.96).
  EXPECT_NEAR(e2c::util::ci95_half_width({1.0, 2.0, 3.0, 2.0}),
              3.182 * e2c::util::stddev({1.0, 2.0, 3.0, 2.0}) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(e2c::util::ci95_half_width({1.0}), 0.0);
  // Large samples converge to the normal approximation.
  std::vector<double> big;
  for (int i = 0; i < 200; ++i) big.push_back(static_cast<double>(i % 7));
  EXPECT_NEAR(e2c::util::ci95_half_width(big),
              1.96 * e2c::util::stddev(big) / std::sqrt(200.0), 1e-12);
}

TEST(Stats, JainFairnessBounds) {
  EXPECT_DOUBLE_EQ(e2c::util::jain_fairness(std::vector<double>{5.0, 5.0, 5.0}), 1.0);
  // One active out of four -> 1/4.
  EXPECT_NEAR(e2c::util::jain_fairness(std::vector<double>{1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(e2c::util::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(e2c::util::jain_fairness(std::vector<double>{0.0, 0.0}), 1.0);
}

TEST(Stats, PercentImprovement) {
  EXPECT_NEAR(e2c::util::percent_improvement(7.6, 8.94).value(), 17.63, 0.01);
  EXPECT_FALSE(e2c::util::percent_improvement(0.0, 5.0).has_value());
  EXPECT_NEAR(e2c::util::percent_improvement(10.0, 5.0).value(), -50.0, 1e-12);
}

}  // namespace
