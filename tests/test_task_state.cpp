// SoA equivalence suite: the per-status counters the simulation maintains
// incrementally at terminal transitions must equal a full scan of the SoA
// status column, and the waste invariant must hold row-by-row, after
// randomized fault/recovery runs. The run-digest goldens prove the layout
// refactor is observationally pure; this suite proves the two bookkeeping
// paths (incremental counters vs dense columns) can never drift apart.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/fault_model.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/rng.hpp"
#include "workload/task_state.hpp"
#include "workload/workload.hpp"

namespace {

using e2c::fault::RecoveryStrategy;
using e2c::sched::Simulation;
using e2c::sched::SystemConfig;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::Workload;

struct StatusScan {
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t dropped = 0;
  std::size_t failed = 0;
  std::size_t replicas_cancelled = 0;
  std::size_t non_terminal = 0;
};

StatusScan scan_statuses(const e2c::workload::TaskStateSoA& state) {
  StatusScan scan;
  for (std::size_t i = 0; i < state.size(); ++i) {
    switch (state.status[i]) {
      case TaskStatus::kCompleted: ++scan.completed; break;
      case TaskStatus::kCancelled: ++scan.cancelled; break;
      case TaskStatus::kDropped: ++scan.dropped; break;
      case TaskStatus::kFailed: ++scan.failed; break;
      case TaskStatus::kReplicaCancelled: ++scan.replicas_cancelled; break;
      default: ++scan.non_terminal; break;
    }
  }
  return scan;
}

void expect_waste_invariant(const Simulation& simulation) {
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_NEAR(state.useful_seconds[i] + state.lost_seconds(i) +
                    state.checkpoint_overhead_seconds(i),
                state.machine_seconds[i], 1e-9)
        << "task " << state.id(i) << " ("
        << e2c::workload::task_status_name(state.status[i]) << ")";
  }
}

/// One randomized fault/recovery run: stochastic failures with a random
/// MTBF/MTTR draw, a random policy, and (for checkpoint runs) random τ/C/R.
/// With \p faults false the same draws run on a machine set that never fails.
std::unique_ptr<Simulation> run_randomized(std::uint64_t seed, RecoveryStrategy strategy,
                                           bool faults = true) {
  e2c::util::Rng rng(seed);
  SystemConfig system = e2c::exp::heterogeneous_classroom(2);
  system.faults.enabled = faults;
  system.faults.mtbf = rng.uniform(6.0, 30.0);
  system.faults.mttr = rng.uniform(1.0, 4.0);
  system.faults.seed = seed * 7919 + 13;
  system.faults.recovery.strategy = strategy;
  if (strategy == RecoveryStrategy::kCheckpoint) {
    system.faults.recovery.checkpoint_interval = rng.uniform(0.5, 3.0);
    system.faults.recovery.checkpoint_cost = rng.uniform(0.1, 0.5);
    system.faults.recovery.restart_cost = rng.uniform(0.1, 0.5);
  }
  if (strategy == RecoveryStrategy::kReplicate) {
    system.faults.recovery.replicas = 2;
  }
  const char* policy = rng.bernoulli(0.5) ? "MECT" : "MM";

  std::vector<TaskDef> tasks;
  const std::size_t count = 30 + static_cast<std::size_t>(rng.uniform_int(0, 20));
  const std::size_t types = system.eet.task_type_count();
  for (std::size_t i = 0; i < count; ++i) {
    TaskDef task;
    task.id = i;
    task.type = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(types) - 1));
    task.arrival = static_cast<double>(i) * rng.uniform(0.2, 0.8);
    task.deadline = task.arrival + rng.uniform(5.0, 40.0);
    tasks.push_back(task);
  }

  auto simulation = std::make_unique<Simulation>(std::move(system),
                                                 e2c::sched::make_policy(policy));
  simulation->load(Workload(std::move(tasks)));
  simulation->run();
  return simulation;
}

TEST(TaskStateEquivalence, IncrementalCountersMatchStatusScan) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const RecoveryStrategy strategy :
         {RecoveryStrategy::kResubmit, RecoveryStrategy::kCheckpoint}) {
      const auto simulation_ptr = run_randomized(seed, strategy);
      const Simulation& simulation = *simulation_ptr;
      const auto& counters = simulation.counters();
      const StatusScan scan = scan_statuses(simulation.task_state());
      EXPECT_EQ(scan.non_terminal, 0u) << "seed " << seed;
      EXPECT_EQ(counters.total, simulation.task_state().size()) << "seed " << seed;
      EXPECT_EQ(counters.completed, scan.completed) << "seed " << seed;
      EXPECT_EQ(counters.cancelled, scan.cancelled) << "seed " << seed;
      EXPECT_EQ(counters.dropped, scan.dropped) << "seed " << seed;
      EXPECT_EQ(counters.failed, scan.failed) << "seed " << seed;
      EXPECT_EQ(scan.replicas_cancelled, 0u) << "seed " << seed;
      expect_waste_invariant(simulation);
    }
  }
}

TEST(TaskStateEquivalence, ReplicatedCountersMatchStatusScan) {
  // Replication counts one outcome per submitted task (group), so the scan
  // compares winners and cancelled siblings rather than raw row totals.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto simulation_ptr = run_randomized(seed, RecoveryStrategy::kReplicate);
    const Simulation& simulation = *simulation_ptr;
    const auto& counters = simulation.counters();
    const auto& state = simulation.task_state();
    const StatusScan scan = scan_statuses(state);
    EXPECT_EQ(scan.non_terminal, 0u) << "seed " << seed;
    EXPECT_EQ(counters.completed, scan.completed) << "seed " << seed;
    EXPECT_EQ(counters.replicas_cancelled, scan.replicas_cancelled) << "seed " << seed;
    // Every row is a member of some group; the group count is the primaries.
    ASSERT_TRUE(state.has_replica_column());
    std::size_t primaries = 0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (state.replica_of[i] == e2c::workload::kNoTaskId) ++primaries;
    }
    EXPECT_EQ(counters.total, primaries) << "seed " << seed;
    expect_waste_invariant(simulation);
  }
}

/// Both fault-only columns are unallocated, and every row reads 0 from them.
void expect_no_fault_columns(const e2c::workload::TaskStateSoA& state) {
  EXPECT_EQ(state.retry_capacity(), 0u);
  EXPECT_EQ(state.checkpoint_overhead_capacity(), 0u);
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.retries(i), 0u) << "task " << i;
    EXPECT_EQ(state.checkpoint_overhead_seconds(i), 0.0) << "task " << i;
  }
}

TEST(TaskStateLayout, CheckpointColumnsAreLazy) {
  // bind() sizes only the dense columns; the checkpoint columns appear
  // together, and only on request, as does the retries column.
  std::vector<TaskDef> trace(3);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = i;
  e2c::workload::TaskStateSoA state;
  state.bind(trace);
  ASSERT_EQ(state.size(), 3u);
  EXPECT_EQ(state.useful_seconds.size(), 3u);
  EXPECT_TRUE(state.completed_fraction.empty());
  EXPECT_TRUE(state.checkpoint_times.empty());
  EXPECT_FALSE(state.has_checkpoint_column());
  expect_no_fault_columns(state);

  state.enable_checkpoint_column();
  EXPECT_TRUE(state.has_checkpoint_column());
  ASSERT_EQ(state.checkpoint_times.size(), 3u);
  ASSERT_EQ(state.completed_fraction.size(), 3u);
  for (double fraction : state.completed_fraction) EXPECT_EQ(fraction, 0.0);
  EXPECT_GE(state.checkpoint_overhead_capacity(), 3u);
  EXPECT_EQ(state.retry_capacity(), 0u);
  state.add_checkpoint_overhead(1, 0.5);
  EXPECT_EQ(state.checkpoint_overhead_seconds(1), 0.5);

  state.enable_retry_column();
  EXPECT_GE(state.retry_capacity(), 3u);
  EXPECT_EQ(state.add_retry(2), 1u);
  EXPECT_EQ(state.retries(2), 1u);
  EXPECT_EQ(state.retries(0), 0u);

  state.reset();
  EXPECT_TRUE(state.completed_fraction.empty());
  EXPECT_FALSE(state.has_checkpoint_column());
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.retries(i), 0u);
    EXPECT_EQ(state.checkpoint_overhead_seconds(i), 0.0);
  }
}

TEST(TaskStateLayout, LostWorkColumnIsSizedOnFirstLoss) {
  std::vector<TaskDef> trace(3);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = i;
  e2c::workload::TaskStateSoA state;
  state.bind(trace);
  EXPECT_EQ(state.lost_seconds_capacity(), 0u);
  EXPECT_EQ(state.lost_seconds(1), 0.0);

  state.add_lost_seconds(1, 0.5);
  state.add_lost_seconds(1, 0.25);
  EXPECT_GE(state.lost_seconds_capacity(), 3u);
  EXPECT_EQ(state.lost_seconds(0), 0.0);
  EXPECT_EQ(state.lost_seconds(1), 0.75);
  EXPECT_EQ(state.lost_seconds(2), 0.0);

  state.reset();
  for (std::size_t i = 0; i < state.size(); ++i) EXPECT_EQ(state.lost_seconds(i), 0.0);
}

/// A fault-free MECT run of 20 tasks arriving 3 s apart, each with
/// \p slack seconds between its arrival and its deadline. Every EET of the
/// classroom system is at least 1.2 s, so a slack below that drops each task
/// mapped to an idle machine while it runs; a large one drops none.
std::unique_ptr<Simulation> run_with_slack(double slack) {
  SystemConfig system = e2c::exp::heterogeneous_classroom(2);
  const std::size_t types = system.eet.task_type_count();
  std::vector<TaskDef> tasks;
  for (std::size_t i = 0; i < 20; ++i) {
    TaskDef task;
    task.id = i;
    task.type = static_cast<std::uint32_t>(i % types);
    task.arrival = 3.0 * static_cast<double>(i);
    task.deadline = task.arrival + slack;
    tasks.push_back(task);
  }
  auto simulation =
      std::make_unique<Simulation>(std::move(system), e2c::sched::make_policy("MECT"));
  simulation->load(Workload(std::move(tasks)));
  simulation->run();
  return simulation;
}

TEST(TaskStateLayout, OnlyRunsThatAbortARunningTaskAllocateTheLostColumn) {
  const auto relaxed = run_with_slack(1000.0);
  EXPECT_EQ(relaxed->counters().completed, 20u);
  EXPECT_EQ(relaxed->task_state().lost_seconds_capacity(), 0u);
  EXPECT_EQ(relaxed->lost_work_seconds(), 0.0);
  for (std::size_t i = 0; i < relaxed->task_state().size(); ++i) {
    EXPECT_EQ(relaxed->task_state().lost_seconds(i), 0.0) << "task " << i;
  }
  expect_waste_invariant(*relaxed);

  const auto tight = run_with_slack(0.5);
  EXPECT_GT(tight->counters().dropped, 0u);
  EXPECT_GE(tight->task_state().lost_seconds_capacity(), tight->task_state().size());
  EXPECT_GT(tight->lost_work_seconds(), 0.0);
  expect_waste_invariant(*tight);
}

TEST(TaskStateLayout, OnlyCheckpointRunsAllocateCheckpointColumns) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // No faults, no checkpoints: neither fault-only column exists.
    const auto plain = run_randomized(seed, RecoveryStrategy::kResubmit, /*faults=*/false);
    EXPECT_FALSE(plain->task_state().has_checkpoint_column()) << "seed " << seed;
    expect_no_fault_columns(plain->task_state());

    // Faults without checkpoints: retries exist, checkpoint overhead does not.
    const auto resubmit = run_randomized(seed, RecoveryStrategy::kResubmit);
    EXPECT_TRUE(resubmit->task_state().completed_fraction.empty()) << "seed " << seed;
    EXPECT_FALSE(resubmit->task_state().has_checkpoint_column()) << "seed " << seed;
    EXPECT_GE(resubmit->task_state().retry_capacity(), resubmit->task_state().size());
    EXPECT_EQ(resubmit->task_state().checkpoint_overhead_capacity(), 0u) << "seed " << seed;

    const auto checkpoint = run_randomized(seed, RecoveryStrategy::kCheckpoint);
    const auto& state = checkpoint->task_state();
    ASSERT_EQ(state.completed_fraction.size(), state.size()) << "seed " << seed;
    EXPECT_GE(state.retry_capacity(), state.size()) << "seed " << seed;
    EXPECT_GE(state.checkpoint_overhead_capacity(), state.size()) << "seed " << seed;
    for (std::size_t i = 0; i < state.size(); ++i) {
      // A completed task's fraction is 1; any other never exceeds it.
      if (state.completed(i)) {
        EXPECT_EQ(state.completed_fraction[i], 1.0) << "seed " << seed << " task " << i;
      } else {
        EXPECT_LE(state.completed_fraction[i], 1.0) << "seed " << seed << " task " << i;
      }
    }
  }
}

}  // namespace
