// Property-based tests: invariants that must hold for EVERY scheduling
// policy on EVERY scenario/intensity. Parameterized over the full policy
// registry cross intensity presets.
#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "reports/metrics.hpp"
#include "sched/registry.hpp"
#include "support/digest_scenarios.hpp"
#include "support/event_trace.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::sched::Simulation;
using e2c::workload::Intensity;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;

struct PropertyCase {
  std::string policy;
  Intensity intensity;
  bool heterogeneous;
};

std::vector<PropertyCase> all_cases() {
  std::vector<PropertyCase> cases;
  for (const std::string policy : {"FCFS", "MEET", "MECT", "MM", "MMU", "MSD", "ELARE",
                                   "FELARE", "FairShare", "PAM"}) {
    for (Intensity intensity : {Intensity::kLow, Intensity::kMedium, Intensity::kHigh}) {
      for (bool heterogeneous : {false, true}) {
        cases.push_back({policy, intensity, heterogeneous});
      }
    }
  }
  return cases;
}

class PolicyInvariantTest : public testing::TestWithParam<PropertyCase> {
 protected:
  // Builds and runs one simulation for the parameter case; also records the
  // trace for ordering checks.
  void run_case() {
    const PropertyCase& param = GetParam();
    system_ = param.heterogeneous ? e2c::exp::heterogeneous_classroom(2)
                                  : e2c::exp::homogeneous_classroom(2);
    const auto machine_types = e2c::exp::machine_types_of(system_);
    auto generator = e2c::workload::config_for_intensity(
        system_.eet, machine_types, param.intensity, /*duration=*/80.0, /*seed=*/1234);
    workload_ = e2c::workload::generate_workload(system_.eet, generator);

    simulation_ = std::make_unique<Simulation>(system_,
                                               e2c::sched::make_policy(param.policy));
    simulation_->load(workload_);
    trace_.record(simulation_->engine());
  }

  e2c::sched::SystemConfig system_;
  e2c::workload::Workload workload_;
  std::unique_ptr<Simulation> simulation_;
  e2c::test::EventTrace trace_;
};

TEST_P(PolicyInvariantTest, EveryTaskReachesExactlyOneTerminalState) {
  run_case();
  const auto& counters = simulation_->counters();
  EXPECT_GT(counters.total, 0u);
  EXPECT_EQ(counters.completed + counters.cancelled + counters.dropped, counters.total);
  const auto& state = simulation_->task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_TRUE(state.finished(i)) << "task " << state.id(i);
  }
}

TEST_P(PolicyInvariantTest, TaskRecordsAreInternallyConsistent) {
  run_case();
  const auto& state = simulation_->task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    switch (state.status[i]) {
      case TaskStatus::kCompleted:
        ASSERT_TRUE(e2c::core::time_set(state.start_time[i]));
        ASSERT_TRUE(e2c::core::time_set(state.completion_time(i)));
        ASSERT_NE(state.machine[i], e2c::workload::kNoMachine);
        EXPECT_GE(state.start_time[i], state.arrival(i));
        EXPECT_GE(state.completion_time(i), state.start_time[i]);
        // On-time means at or before the deadline.
        EXPECT_LE(state.completion_time(i), state.deadline(i) + 1e-9);
        EXPECT_FALSE(e2c::core::time_set(state.missed_time(i)));
        break;
      case TaskStatus::kCancelled:
        // Cancelled before mapping: never saw a machine.
        EXPECT_EQ(state.machine[i], e2c::workload::kNoMachine);
        EXPECT_FALSE(e2c::core::time_set(state.start_time[i]));
        ASSERT_TRUE(e2c::core::time_set(state.missed_time(i)));
        EXPECT_NEAR(state.missed_time(i), state.deadline(i), 1e-9);
        break;
      case TaskStatus::kDropped:
        // Dropped after mapping.
        EXPECT_NE(state.machine[i], e2c::workload::kNoMachine);
        ASSERT_TRUE(e2c::core::time_set(state.missed_time(i)));
        EXPECT_NEAR(state.missed_time(i), state.deadline(i), 1e-9);
        EXPECT_FALSE(e2c::core::time_set(state.completion_time(i)));
        break;
      default:
        FAIL() << "non-terminal status after run()";
    }
  }
}

TEST_P(PolicyInvariantTest, ExecutionRespectsEet) {
  run_case();
  const auto& eet = simulation_->eet();
  const auto& state = simulation_->task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.status[i] != TaskStatus::kCompleted) continue;
    const auto machine_type = simulation_->machine(state.machine[i]).type();
    EXPECT_NEAR(state.completion_time(i) - state.start_time[i],
                eet.eet(state.type(i), machine_type), 1e-9)
        << "task " << state.id(i);
  }
}

TEST_P(PolicyInvariantTest, MachineAccountingBounded) {
  run_case();
  const double horizon = simulation_->engine().now();
  std::size_t completions = 0;
  for (std::size_t m = 0; m < simulation_->machine_count(); ++m) {
    const auto stats = simulation_->machine(m).finalize_stats(horizon);
    EXPECT_LE(stats.busy_seconds, horizon + 1e-9);
    EXPECT_LE(stats.utilization(), 1.0 + 1e-9);
    EXPECT_GE(stats.utilization(), 0.0);
    completions += stats.tasks_completed;
  }
  EXPECT_EQ(completions, simulation_->counters().completed);
}

TEST_P(PolicyInvariantTest, EnergyWithinPowerEnvelope) {
  run_case();
  const double horizon = simulation_->engine().now();
  double idle_floor = 0.0;
  double busy_ceiling = 0.0;
  for (const auto& machine : system_.machines) {
    idle_floor += machine.power.idle_watts * horizon;
    busy_ceiling += machine.power.busy_watts * horizon;
  }
  const double energy = simulation_->total_energy_joules(horizon);
  EXPECT_GE(energy, idle_floor - 1e-6);
  EXPECT_LE(energy, busy_ceiling + 1e-6);
}

TEST_P(PolicyInvariantTest, EventOrderingIsMonotonic) {
  run_case();
  EXPECT_TRUE(trace_.is_monotonic());
  EXPECT_GT(trace_.records().size(), workload_.size());  // >= one event per task
}

TEST_P(PolicyInvariantTest, ImmediateModeNeverCancels) {
  run_case();
  const auto policy = e2c::sched::make_policy(GetParam().policy);
  if (policy->mode() != e2c::sched::PolicyMode::kImmediate) return;
  // Unbounded machine queues: every task is mapped on arrival, so the
  // "cancelled in batch queue" outcome is unreachable.
  EXPECT_EQ(simulation_->counters().cancelled, 0u);
  EXPECT_TRUE(simulation_->batch_queue_ids().empty());
}

TEST_P(PolicyInvariantTest, MetricsAgreeWithCounters) {
  run_case();
  const auto metrics = e2c::reports::compute_metrics(*simulation_);
  EXPECT_EQ(metrics.completed, simulation_->counters().completed);
  EXPECT_NEAR(metrics.completion_percent + metrics.cancelled_percent +
                  metrics.dropped_percent,
              100.0, 1e-9);
  // The per-type rates the Jain index is taken over: one per task type, each
  // exactly the simulation's own on-time rate for that type.
  const std::span<const double> rates = simulation_->type_ontime_rates();
  ASSERT_EQ(rates.size(), system_.eet.task_type_count());
  for (std::size_t t = 0; t < rates.size(); ++t) {
    EXPECT_EQ(rates[t], simulation_->type_ontime_rate(t));
  }
}

std::string case_name(const testing::TestParamInfo<PropertyCase>& info) {
  return info.param.policy + "_" +
         e2c::workload::intensity_name(info.param.intensity) + "_" +
         (info.param.heterogeneous ? "hetero" : "homog");
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllIntensities, PolicyInvariantTest,
                         testing::ValuesIn(all_cases()), case_name);

/// Runs \p workload on \p system under \p policy. A row's one end instant
/// must read as a completion iff the row completed and as a miss iff it ended
/// any other way: never both, and neither while the row is unfinished.
void expect_one_end_instant(const e2c::sched::SystemConfig& system,
                            const e2c::workload::Workload& workload,
                            const std::string& policy) {
  SCOPED_TRACE(policy);
  Simulation simulation(system, e2c::sched::make_policy(policy));
  simulation.load(workload);
  simulation.run();
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    const bool completed = state.status[i] == TaskStatus::kCompleted;
    const bool missed = state.finished(i) && !completed;
    EXPECT_EQ(e2c::core::time_set(state.completion_time(i)), completed)
        << "task " << state.id(i) << " " << e2c::workload::task_status_name(state.status[i]);
    EXPECT_EQ(e2c::core::time_set(state.missed_time(i)), missed)
        << "task " << state.id(i) << " " << e2c::workload::task_status_name(state.status[i]);
  }
}

// Over the run-digest scenario set: plain, fault and autoscaled systems under
// every policy, and the deep-queue systems under every batch policy.
TEST(TaskRecordProperty, CompletionOrMissTimeFollowsTerminalStatus) {
  for (const e2c::test::DigestScenario& scenario : e2c::test::kDigestScenarios) {
    const auto system = scenario.make();
    const auto workload = e2c::test::digest_workload(system, e2c::test::kDigestRho,
                                                     e2c::test::kDigestDuration);
    SCOPED_TRACE(scenario.name);
    for (const std::string& policy : e2c::sched::PolicyRegistry::instance().names()) {
      expect_one_end_instant(system, workload, policy);
    }
  }
  for (const std::size_t capacity : e2c::test::kDeepQueueCapacities) {
    const auto system = e2c::exp::heterogeneous_classroom(capacity);
    const auto workload = e2c::test::digest_workload(system, e2c::test::kDeepQueueRho,
                                                     e2c::test::kDeepQueueDuration);
    SCOPED_TRACE("deepq" + std::to_string(capacity));
    for (const std::string& policy : e2c::sched::batch_policy_names()) {
      expect_one_end_instant(system, workload, policy);
    }
  }
}

// Pressing "Increment" until the calendar is empty must give the run that
// "Run" gives: over the run-digest scenario set, under every policy, the
// step loop of EventTrace::record and Simulation::run() end with the same
// run digest.
TEST(StepProperty, SteppingToTheEndEqualsRunning) {
  for (const e2c::test::DigestScenario& scenario : e2c::test::kDigestScenarios) {
    const auto system = scenario.make();
    const auto workload = e2c::test::digest_workload(system, e2c::test::kDigestRho,
                                                     e2c::test::kDigestDuration);
    for (const std::string& policy : e2c::sched::PolicyRegistry::instance().names()) {
      SCOPED_TRACE(std::string(scenario.name) + "/" + policy);
      Simulation ran(system, e2c::sched::make_policy(policy));
      ran.load(workload);
      ran.run();

      Simulation stepped(system, e2c::sched::make_policy(policy));
      stepped.load(workload);
      e2c::test::EventTrace trace;
      trace.record(stepped.engine());

      EXPECT_EQ(e2c::test::digest_of(stepped), e2c::test::digest_of(ran));
      EXPECT_EQ(trace.records().size(), ran.engine().processed_count());
    }
  }
}

}  // namespace
