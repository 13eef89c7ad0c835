// Unit tests for the workload generator and intensity calibration
// (workload/generator.hpp).
#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::workload::GeneratorConfig;
using e2c::workload::Intensity;

EetMatrix sample_eet() {
  return EetMatrix({"T1", "T2"}, {"m1", "m2"}, {{2.0, 4.0}, {6.0, 2.0}});
}

TEST(SystemCapacity, SingleMachineUniformMix) {
  // Machine type 0 services the uniform mix at mean (2+6)/2 = 4 s/task.
  const double capacity = e2c::workload::system_capacity(sample_eet(), {0}, {});
  EXPECT_NEAR(capacity, 0.25, 1e-12);
}

TEST(SystemCapacity, MultipleMachinesAdd) {
  const double one = e2c::workload::system_capacity(sample_eet(), {0}, {});
  const double both = e2c::workload::system_capacity(sample_eet(), {0, 0}, {});
  EXPECT_NEAR(both, 2.0 * one, 1e-12);
}

TEST(SystemCapacity, WeightsChangeServiceMix) {
  // All weight on T1: machine 0 serves at 1/2 task/s.
  const double capacity =
      e2c::workload::system_capacity(sample_eet(), {0}, {1.0, 0.0});
  EXPECT_NEAR(capacity, 0.5, 1e-12);
}

TEST(SystemCapacity, RejectsBadInput) {
  EXPECT_THROW((void)e2c::workload::system_capacity(sample_eet(), {}, {}), e2c::InputError);
  EXPECT_THROW((void)e2c::workload::system_capacity(sample_eet(), {0}, {1.0}),
               e2c::InputError);
  EXPECT_THROW((void)e2c::workload::system_capacity(sample_eet(), {0}, {0.0, 0.0}),
               e2c::InputError);
}

TEST(Generator, DeterministicInSeed) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 1.0;
  config.duration = 50.0;
  config.seed = 77;
  const auto a = e2c::workload::generate_workload(eet, config);
  const auto b = e2c::workload::generate_workload(eet, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tasks()[i].type, b.tasks()[i].type);
    EXPECT_DOUBLE_EQ(a.tasks()[i].arrival, b.tasks()[i].arrival);
    EXPECT_DOUBLE_EQ(a.tasks()[i].deadline, b.tasks()[i].deadline);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 1.0;
  config.duration = 100.0;
  config.seed = 1;
  const auto a = e2c::workload::generate_workload(eet, config);
  config.seed = 2;
  const auto b = e2c::workload::generate_workload(eet, config);
  bool identical = a.size() == b.size();
  if (identical) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.tasks()[i].arrival != b.tasks()[i].arrival) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Generator, IdsSequentialFromZero) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 2.0;
  config.duration = 40.0;
  const auto workload = e2c::workload::generate_workload(eet, config);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(workload.tasks()[i].id, i);
  }
  EXPECT_TRUE(workload.dense_ids());
}

TEST(Generator, SmallTracesHoldNoReservedSlack) {
  // A sweep caches one trace per (intensity, replication); a trace under
  // 2 MiB must hold no spare capacity, or the slack adds up in its RSS.
  const EetMatrix eet = sample_eet();
  for (const auto kind :
       {e2c::workload::ArrivalKind::kPoisson, e2c::workload::ArrivalKind::kUniform,
        e2c::workload::ArrivalKind::kNormal, e2c::workload::ArrivalKind::kConstant,
        e2c::workload::ArrivalKind::kBurst}) {
    GeneratorConfig config;
    config.arrival = kind;
    config.rate = 50.0;
    config.duration = 200.0;
    const auto workload = e2c::workload::generate_workload(eet, config);
    ASSERT_LT(workload.size() * sizeof(e2c::workload::TaskDef), std::size_t{2} << 20);
    EXPECT_EQ(workload.tasks().capacity(), workload.size())
        << e2c::workload::arrival_kind_name(kind);
  }
}

TEST(Generator, GeneratedTraceKnowsItsLargestType) {
  // validate_against reads the largest type the Workload recorded.
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 2.0;
  config.duration = 40.0;
  config.type_weights = {0.0, 1.0};  // every task is T2 (type 1)
  const auto workload = e2c::workload::generate_workload(eet, config);
  ASSERT_FALSE(workload.empty());
  EXPECT_NO_THROW(workload.validate_against(eet));
  const EetMatrix one_type({"T1"}, {"m1", "m2"}, {{2.0, 4.0}});
  EXPECT_THROW(workload.validate_against(one_type), e2c::InputError);
}

TEST(Generator, DeadlinesRespectFactors) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 2.0;
  config.duration = 100.0;
  config.deadline_factor_lo = 2.0;
  config.deadline_factor_hi = 4.0;
  const auto workload = e2c::workload::generate_workload(eet, config);
  for (const auto& task : workload.tasks()) {
    const double slack = task.deadline - task.arrival;
    const double mean_eet = eet.row_mean(task.type);
    EXPECT_GE(slack, 2.0 * mean_eet - 1e-9);
    EXPECT_LE(slack, 4.0 * mean_eet + 1e-9);
  }
}

TEST(Generator, TypeWeightsBiasTheMix) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 5.0;
  config.duration = 400.0;
  config.type_weights = {9.0, 1.0};
  const auto workload = e2c::workload::generate_workload(eet, config);
  const auto histogram = workload.type_histogram(2);
  EXPECT_GT(histogram[0], 5 * histogram[1]);
}

TEST(Generator, ValidatesConfig) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.rate = 0.0;
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
  config.rate = 1.0;
  config.duration = -5.0;
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
  config.duration = 10.0;
  config.deadline_factor_lo = 3.0;
  config.deadline_factor_hi = 2.0;
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
  config.deadline_factor_hi = 4.0;
  config.type_weights = {1.0};  // wrong size
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
}

TEST(Generator, RejectsTheMixesSystemCapacityRejects) {
  // A negative weight is not a zero weight and an all-zero mix is not the
  // uniform one: the generator refuses both before drawing, with the checks
  // (and messages) system_capacity applies to the same mix.
  const EetMatrix eet = sample_eet();
  const auto error_of = [&eet](std::vector<double> weights) -> std::string {
    GeneratorConfig config;
    config.type_weights = std::move(weights);
    try {
      (void)e2c::workload::generate_workload(eet, config);
    } catch (const e2c::InputError& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(error_of({1.0, -2.0}), "generator: negative type weight");
  EXPECT_EQ(error_of({0.0, 0.0}), "generator: all type weights are zero");
  EXPECT_EQ(error_of({1.0}), "generator: type_weights size must match EET task types");
}

TEST(Generator, ExplicitUnitMixDrawsTheDefaultMix) {
  // The default mix draws in constant time and an explicit mix is scanned;
  // over all-ones weights the two draw the same types from the same stream.
  std::vector<std::string> names;
  for (int t = 0; t < 1000; ++t) names.push_back("T" + std::to_string(t));
  const EetMatrix eet =
      EetMatrix::homogeneous(std::move(names), {"m1"}, std::vector<double>(1000, 3.0));
  GeneratorConfig config;
  config.rate = 5.0;
  config.duration = 200.0;
  config.seed = 19;
  const auto by_default = e2c::workload::generate_workload(eet, config);
  config.type_weights.assign(1000, 1.0);
  const auto by_scan = e2c::workload::generate_workload(eet, config);
  ASSERT_EQ(by_default.size(), by_scan.size());
  ASSERT_GT(by_default.size(), 500u);
  for (std::size_t i = 0; i < by_default.size(); ++i) {
    EXPECT_EQ(by_default.tasks()[i].type, by_scan.tasks()[i].type) << "task " << i;
    EXPECT_EQ(by_default.tasks()[i].deadline, by_scan.tasks()[i].deadline) << "task " << i;
  }
}

TEST(Generator, PerTypeArrivalsProduceIndependentStreams) {
  // The paper's per-type workload definition: T1 arrives 4x as often as T2.
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.duration = 1000.0;
  config.seed = 21;
  config.per_type_arrivals = {{e2c::workload::ArrivalKind::kPoisson, 2.0},
                              {e2c::workload::ArrivalKind::kPoisson, 0.5}};
  const auto workload = e2c::workload::generate_workload(eet, config);
  const auto histogram = workload.type_histogram(2);
  EXPECT_NEAR(static_cast<double>(histogram[0]) / 1000.0, 2.0, 0.25);
  EXPECT_NEAR(static_cast<double>(histogram[1]) / 1000.0, 0.5, 0.15);
}

TEST(Generator, PerTypeArrivalsCanMixProcessKinds) {
  // Constant spacing for T1, bursty for T2 — each type keeps its signature.
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.duration = 400.0;
  config.seed = 33;
  config.per_type_arrivals = {{e2c::workload::ArrivalKind::kConstant, 0.5},
                              {e2c::workload::ArrivalKind::kBurst, 0.5}};
  const auto workload = e2c::workload::generate_workload(eet, config);
  // T1 (constant at 0.5/s over 400 s) contributes exactly 199 tasks
  // (arrivals at 2, 4, ..., 398).
  EXPECT_EQ(workload.type_histogram(2)[0], 199u);
  EXPECT_GT(workload.type_histogram(2)[1], 100u);
  // Merged trace is still sorted with sequential ids.
  for (std::size_t i = 1; i < workload.size(); ++i) {
    EXPECT_GE(workload.tasks()[i].arrival, workload.tasks()[i - 1].arrival);
    EXPECT_EQ(workload.tasks()[i].id, i);
  }
  EXPECT_TRUE(workload.dense_ids());
}

TEST(Generator, PerTypeArrivalsDeterministic) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.duration = 100.0;
  config.seed = 5;
  config.per_type_arrivals = {{e2c::workload::ArrivalKind::kPoisson, 1.0},
                              {e2c::workload::ArrivalKind::kUniform, 1.5}};
  const auto a = e2c::workload::generate_workload(eet, config);
  const auto b = e2c::workload::generate_workload(eet, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks()[i].arrival, b.tasks()[i].arrival);
    EXPECT_EQ(a.tasks()[i].type, b.tasks()[i].type);
  }
}

TEST(Generator, PerTypeArrivalsValidated) {
  const EetMatrix eet = sample_eet();
  GeneratorConfig config;
  config.per_type_arrivals = {{e2c::workload::ArrivalKind::kPoisson, 1.0}};  // one of two
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
  config.per_type_arrivals = {{e2c::workload::ArrivalKind::kPoisson, 1.0},
                              {e2c::workload::ArrivalKind::kPoisson, 0.0}};  // bad rate
  EXPECT_THROW((void)e2c::workload::generate_workload(eet, config), e2c::InputError);
}

TEST(Intensity, PresetsScaleRate) {
  const EetMatrix eet = sample_eet();
  const auto low = e2c::workload::config_for_intensity(eet, {0, 1}, Intensity::kLow,
                                                       100.0, 1);
  const auto medium = e2c::workload::config_for_intensity(eet, {0, 1},
                                                          Intensity::kMedium, 100.0, 1);
  const auto high = e2c::workload::config_for_intensity(eet, {0, 1}, Intensity::kHigh,
                                                        100.0, 1);
  EXPECT_NEAR(medium.rate, 2.0 * low.rate, 1e-12);
  EXPECT_NEAR(high.rate, 4.0 * low.rate, 1e-12);
  const double capacity = e2c::workload::system_capacity(eet, {0, 1}, {});
  EXPECT_NEAR(medium.rate, capacity, 1e-12);
}

TEST(Intensity, NamesAndLoads) {
  EXPECT_STREQ(e2c::workload::intensity_name(Intensity::kLow), "low");
  EXPECT_STREQ(e2c::workload::intensity_name(Intensity::kHigh), "high");
  EXPECT_DOUBLE_EQ(e2c::workload::intensity_offered_load(Intensity::kLow), 0.5);
  EXPECT_DOUBLE_EQ(e2c::workload::intensity_offered_load(Intensity::kMedium), 1.0);
  EXPECT_DOUBLE_EQ(e2c::workload::intensity_offered_load(Intensity::kHigh), 2.0);
  EXPECT_EQ(e2c::workload::parse_intensity("MEDIUM"), Intensity::kMedium);
  EXPECT_THROW((void)e2c::workload::parse_intensity("turbo"), e2c::InputError);
}

}  // namespace
