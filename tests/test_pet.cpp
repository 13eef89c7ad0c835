// Unit + statistical tests for the Probabilistic Execution Time model
// (hetero/pet_matrix.hpp) and its integration into the simulation.
#include "hetero/pet_matrix.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::hetero::PetCell;
using e2c::hetero::PetKind;
using e2c::hetero::PetMatrix;

EetMatrix sample_eet() {
  return EetMatrix({"T1", "T2"}, {"m0", "m1"}, {{4.0, 2.0}, {6.0, 3.0}});
}

TEST(PetCell, DeterministicAlwaysMean) {
  e2c::util::Rng rng(1);
  const PetCell cell{PetKind::kDeterministic, 5.0, 0.7};
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(cell.sample(rng), 5.0);
  EXPECT_DOUBLE_EQ(cell.stddev(), 0.0);
}

class PetKindTest : public testing::TestWithParam<PetKind> {};

TEST_P(PetKindTest, SamplesArePositive) {
  e2c::util::Rng rng(7);
  const PetCell cell{GetParam(), 3.0, 0.4};
  for (int i = 0; i < 5000; ++i) EXPECT_GT(cell.sample(rng), 0.0);
}

TEST_P(PetKindTest, SampleMeanMatchesConfiguredMean) {
  e2c::util::Rng rng(11);
  const PetCell cell{GetParam(), 3.0, 0.3};
  e2c::util::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(cell.sample(rng));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05) << pet_kind_name(GetParam());
}

TEST_P(PetKindTest, SampleStddevMatchesConfiguredCv) {
  if (GetParam() == PetKind::kDeterministic) return;
  e2c::util::Rng rng(13);
  const PetCell cell{GetParam(), 3.0, 0.3};
  e2c::util::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(cell.sample(rng));
  const double expected =
      GetParam() == PetKind::kExponential ? 3.0 : 0.3 * 3.0;  // exp: cv = 1
  EXPECT_NEAR(stats.stddev(), expected, 0.1) << pet_kind_name(GetParam());
  EXPECT_NEAR(cell.stddev(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PetKindTest,
                         testing::Values(PetKind::kDeterministic, PetKind::kNormal,
                                         PetKind::kUniform, PetKind::kExponential,
                                         PetKind::kLognormal),
                         [](const testing::TestParamInfo<PetKind>& param_info) {
                           return e2c::hetero::pet_kind_name(param_info.param);
                         });

TEST(PetMatrix, DeterministicMatchesEet) {
  const EetMatrix eet = sample_eet();
  const PetMatrix pet = PetMatrix::deterministic(eet);
  e2c::util::Rng rng(3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(pet.sample(r, c, rng), eet.eet(r, c));
    }
  }
}

TEST(PetMatrix, HomoscedasticShapeAndMeans) {
  const EetMatrix eet = sample_eet();
  const PetMatrix pet = PetMatrix::homoscedastic(eet, PetKind::kNormal, 0.2);
  EXPECT_EQ(pet.task_type_count(), 2u);
  EXPECT_EQ(pet.machine_type_count(), 2u);
  EXPECT_DOUBLE_EQ(pet.cell(1, 0).mean, 6.0);
  EXPECT_DOUBLE_EQ(pet.cell(1, 0).cv, 0.2);
  EXPECT_THROW((void)PetMatrix::homoscedastic(eet, PetKind::kNormal, -0.1),
               e2c::InputError);
}

TEST(PetMatrix, ToEetRecoverMeans) {
  const EetMatrix eet = sample_eet();
  const PetMatrix pet = PetMatrix::homoscedastic(eet, PetKind::kLognormal, 0.5);
  const EetMatrix back = pet.to_eet(eet.task_type_names(), eet.machine_type_names());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(back.eet(r, c), eet.eet(r, c));
  }
}

TEST(PetMatrix, SetCellValidates) {
  PetMatrix pet = PetMatrix::deterministic(sample_eet());
  pet.set_cell(0, 1, PetCell{PetKind::kUniform, 2.5, 0.1});
  EXPECT_EQ(pet.cell(0, 1).kind, PetKind::kUniform);
  EXPECT_THROW(pet.set_cell(0, 1, PetCell{PetKind::kNormal, -1.0, 0.1}), e2c::InputError);
  EXPECT_THROW(pet.set_cell(5, 0, PetCell{}), e2c::InputError);
  EXPECT_THROW((void)pet.cell(0, 9), e2c::InputError);
}

TEST(PetMatrix, ParseKindNames) {
  EXPECT_EQ(e2c::hetero::parse_pet_kind("NORMAL"), PetKind::kNormal);
  EXPECT_EQ(e2c::hetero::parse_pet_kind("lognormal"), PetKind::kLognormal);
  EXPECT_THROW((void)e2c::hetero::parse_pet_kind("weibull"), e2c::InputError);
}

// --- simulation integration ------------------------------------------------

e2c::sched::SystemConfig stochastic_system(double cv) {
  auto config = e2c::sched::make_default_system(sample_eet());
  config.pet = PetMatrix::homoscedastic(config.eet, PetKind::kNormal, cv);
  return config;
}

e2c::workload::Workload single_task_workload(double deadline) {
  e2c::workload::TaskDef task;
  task.id = 0;
  task.type = 0;
  task.arrival = 0.0;
  task.deadline = deadline;
  return e2c::workload::Workload({task});
}

TEST(PetSimulation, ExecutionTimeIsSampledNotExpected) {
  // With cv=0.5 the sampled run time of the single task almost surely
  // differs from the EET expectation (2.0 on m1 for T1 via MECT).
  auto config = stochastic_system(0.5);
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
  simulation.load(single_task_workload(1e9));
  simulation.run();
  const auto& state = simulation.task_state();
  ASSERT_TRUE(e2c::core::time_set(state.completion_time(0)));
  const double actual = state.completion_time(0) - state.start_time[0];
  EXPECT_NE(actual, 2.0);
  EXPECT_GT(actual, 0.0);
}

TEST(PetSimulation, SamplingSeedReproducible) {
  auto run_once = [&] {
    auto config = stochastic_system(0.5);
    config.sampling_seed = 99;
    e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
    simulation.load(single_task_workload(1e9));
    simulation.run();
    return simulation.task_state().completion_time(0);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(PetSimulation, DifferentSamplingSeedsDiffer) {
  auto run_with_seed = [&](std::uint64_t seed) {
    auto config = stochastic_system(0.5);
    config.sampling_seed = seed;
    e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
    simulation.load(single_task_workload(1e9));
    simulation.run();
    return simulation.task_state().completion_time(0);
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(PetSimulation, MismatchedPetShapeRejected) {
  auto config = e2c::sched::make_default_system(sample_eet());
  const EetMatrix other({"T1"}, {"m0"}, {{1.0}});
  config.pet = PetMatrix::deterministic(other);
  EXPECT_THROW(e2c::sched::Simulation(config, e2c::sched::make_policy("FCFS")),
               e2c::InputError);
}

TEST(PetSimulation, DeterministicPetMatchesPlainEet) {
  // A deterministic PET must reproduce exactly the deterministic simulation.
  auto config_pet = e2c::sched::make_default_system(sample_eet());
  config_pet.pet = PetMatrix::deterministic(config_pet.eet);
  e2c::sched::Simulation with_pet(config_pet, e2c::sched::make_policy("MECT"));
  with_pet.load(single_task_workload(1e9));
  with_pet.run();

  auto config_plain = e2c::sched::make_default_system(sample_eet());
  e2c::sched::Simulation plain(config_plain, e2c::sched::make_policy("MECT"));
  plain.load(single_task_workload(1e9));
  plain.run();

  EXPECT_DOUBLE_EQ(with_pet.task_state().completion_time(0),
                   plain.task_state().completion_time(0));
}

}  // namespace
