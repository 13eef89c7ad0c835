// Unit tests for PAM, the pruning-aware probabilistic policy (sched/pam.hpp).
#include "sched/pam.hpp"

#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "support/schedule.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::hetero::PetKind;
using e2c::hetero::PetMatrix;
using e2c::sched::MachineView;
using e2c::sched::PamPolicy;
using e2c::test::make_context;
using e2c::test::QueuedContext;
using e2c::test::queued_task;
using e2c::test::schedule;

EetMatrix eet() { return EetMatrix({"T1"}, {"m0", "m1"}, {{4.0, 8.0}}); }

TEST(Pam, RegisteredAsBatchPolicy) {
  const auto policy = e2c::sched::make_policy("PAM");
  EXPECT_EQ(policy->name(), "PAM");
  EXPECT_EQ(policy->mode(), e2c::sched::PolicyMode::kBatch);
}

TEST(Pam, ThresholdValidated) {
  EXPECT_THROW(PamPolicy{-0.1}, e2c::InputError);
  EXPECT_THROW(PamPolicy{1.1}, e2c::InputError);
}

TEST(Pam, DeterministicSuccessProbabilityIsStep) {
  const EetMatrix matrix = eet();
  const auto feasible = queued_task(1, 0, /*deadline=*/5.0);
  const auto doomed = queued_task(2, 0, /*deadline=*/3.0);
  auto context = make_context(matrix, {&feasible, &doomed});
  EXPECT_DOUBLE_EQ(
      PamPolicy::success_probability(context, feasible, context.machines()[0]), 1.0);
  EXPECT_DOUBLE_EQ(
      PamPolicy::success_probability(context, doomed, context.machines()[0]), 0.0);
}

TEST(Pam, StochasticSuccessProbabilityUsesPet) {
  const EetMatrix matrix = eet();
  const PetMatrix pet = PetMatrix::homoscedastic(matrix, PetKind::kNormal, 0.25);
  const auto task = queued_task(1, 0, /*deadline=*/4.0);  // exactly the mean
  std::vector<MachineView> machines{{0, 0, 0.0, e2c::sched::kUnlimitedSlots, 1.0, 10.0}};
  QueuedContext context(matrix, {&task}, std::move(machines), {}, &pet);
  // Completion mean 4.0 == deadline: P = 0.5 under the normal approximation.
  EXPECT_NEAR(PamPolicy::success_probability(context, task, context.machines()[0]), 0.5,
              1e-9);
  EXPECT_TRUE(context.stochastic());
  EXPECT_NEAR(context.exec_stddev(task, context.machines()[0]), 1.0, 1e-9);
}

TEST(Pam, PrunesRiskyTasks) {
  const EetMatrix matrix = eet();
  const PetMatrix pet = PetMatrix::homoscedastic(matrix, PetKind::kNormal, 0.25);
  // deadline 4.2: slack 0.2, sigma 1.0 -> P ~ 0.58 < 0.9 threshold -> pruned.
  const auto risky = queued_task(1, 0, /*deadline=*/4.2);
  // deadline 8: slack 4, P ~ 1 -> mapped.
  const auto safe = queued_task(2, 0, /*deadline=*/8.0);
  std::vector<MachineView> machines{{0, 0, 0.0, e2c::sched::kUnlimitedSlots, 1.0, 10.0}};
  QueuedContext context(matrix, {&risky, &safe}, std::move(machines), {}, &pet);
  PamPolicy policy(0.9);
  const auto assignments = schedule(policy, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].task, 2u);
}

TEST(Pam, ZeroThresholdMapsEverythingWithSlots) {
  const EetMatrix matrix = eet();
  const PetMatrix pet = PetMatrix::homoscedastic(matrix, PetKind::kNormal, 0.25);
  const auto t1 = queued_task(1, 0, /*deadline=*/0.5);  // doomed but threshold 0
  std::vector<MachineView> machines{{0, 0, 0.0, e2c::sched::kUnlimitedSlots, 1.0, 10.0},
                                    {1, 1, 0.0, e2c::sched::kUnlimitedSlots, 1.0, 10.0}};
  QueuedContext context(matrix, {&t1}, std::move(machines), {}, &pet);
  PamPolicy policy(0.0);
  EXPECT_EQ(schedule(policy, context).size(), 1u);
}

TEST(Pam, PicksMinExpectedCompletionAmongSafePairs) {
  const EetMatrix matrix = eet();  // m0 is 4 s, m1 is 8 s
  const auto task = queued_task(1, 0, /*deadline=*/100.0);
  auto context = make_context(matrix, {&task});
  PamPolicy policy(0.9);
  const auto assignments = schedule(policy, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 0u);
}

TEST(PamSimulation, PruningImprovesRobustnessUnderVariance) {
  // Stochastic heterogeneous system at high intensity: PAM (threshold 0.9)
  // should complete at least as much as plain MM, because it never wastes
  // machine time on likely-doomed tasks. Paired workloads, 5 replications.
  auto base = e2c::exp::heterogeneous_classroom(2);
  base.pet = PetMatrix::homoscedastic(base.eet, PetKind::kLognormal, 0.4);
  const auto machine_types = e2c::exp::machine_types_of(base);

  double pam_total = 0.0;
  double mm_total = 0.0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const auto generator = e2c::workload::config_for_intensity(
        base.eet, machine_types, e2c::workload::Intensity::kHigh, 60.0, 1000 + rep);
    const auto trace = e2c::workload::generate_workload(base.eet, generator);
    for (const bool use_pam : {true, false}) {
      auto config = base;
      config.sampling_seed = 555 + rep;
      e2c::sched::Simulation simulation(
          config, use_pam ? std::make_unique<PamPolicy>(0.9)
                          : e2c::sched::make_policy("MM"));
      simulation.load(trace);
      simulation.run();
      (use_pam ? pam_total : mm_total) +=
          simulation.counters().completion_percent();
    }
  }
  EXPECT_GE(pam_total, mm_total - 1.0);  // at worst a point behind, never collapse
}

}  // namespace
