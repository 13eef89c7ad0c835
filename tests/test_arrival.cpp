// Unit + statistical tests for arrival processes (workload/arrival.hpp).
#include "workload/arrival.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace {

using e2c::util::Rng;
using e2c::workload::ArrivalKind;

/// Collects every instant for_each_arrival emits.
std::vector<e2c::core::SimTime> generate_arrivals(ArrivalKind kind, double rate,
                                                  e2c::core::SimTime duration, Rng& rng) {
  std::vector<e2c::core::SimTime> times;
  e2c::workload::for_each_arrival(kind, rate, duration, rng,
                                  [&times](e2c::core::SimTime t) { times.push_back(t); });
  return times;
}

class ArrivalKindTest : public testing::TestWithParam<ArrivalKind> {};

TEST_P(ArrivalKindTest, TimesWithinWindowAndSorted) {
  Rng rng(99);
  const double duration = 500.0;
  const auto times = generate_arrivals(GetParam(), 1.0, duration, rng);
  ASSERT_FALSE(times.empty());
  double prev = 0.0;
  for (double t : times) {
    EXPECT_GE(t, prev);
    EXPECT_LT(t, duration);
    prev = t;
  }
}

TEST_P(ArrivalKindTest, MeanRateApproximatelyRespected) {
  Rng rng(7);
  const double rate = 2.0;
  const double duration = 2000.0;
  const auto times = generate_arrivals(GetParam(), rate, duration, rng);
  const double realized = static_cast<double>(times.size()) / duration;
  // All processes target the requested long-run rate; burst is noisier.
  EXPECT_NEAR(realized, rate, GetParam() == ArrivalKind::kBurst ? 0.5 : 0.15);
}

TEST_P(ArrivalKindTest, DeterministicInSeed) {
  Rng rng_a(123);
  Rng rng_b(123);
  const auto a = generate_arrivals(GetParam(), 1.5, 100.0, rng_a);
  const auto b = generate_arrivals(GetParam(), 1.5, 100.0, rng_b);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalKindTest,
                         testing::Values(ArrivalKind::kPoisson, ArrivalKind::kUniform,
                                         ArrivalKind::kNormal, ArrivalKind::kConstant,
                                         ArrivalKind::kBurst),
                         [](const testing::TestParamInfo<ArrivalKind>& param_info) {
                           return e2c::workload::arrival_kind_name(param_info.param);
                         });

TEST(Arrival, ConstantSpacingExact) {
  Rng rng(1);
  const auto times = generate_arrivals(ArrivalKind::kConstant, 0.5, 10.0, rng);
  ASSERT_EQ(times.size(), 4u);  // 2, 4, 6, 8
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[3], 8.0);
}

TEST(Arrival, ParseNames) {
  EXPECT_EQ(e2c::workload::parse_arrival_kind("poisson"), ArrivalKind::kPoisson);
  EXPECT_EQ(e2c::workload::parse_arrival_kind("BURST"), ArrivalKind::kBurst);
  EXPECT_THROW((void)e2c::workload::parse_arrival_kind("zipf"), e2c::InputError);
}

TEST(Arrival, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW((void)generate_arrivals(ArrivalKind::kPoisson, 0.0, 10.0, rng),
               e2c::InputError);
  EXPECT_THROW((void)generate_arrivals(ArrivalKind::kPoisson, 1.0, 0.0, rng),
               e2c::InputError);
}

}  // namespace
