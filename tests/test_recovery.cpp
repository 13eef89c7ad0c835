// Tests for the recovery strategies (fault/fault_model.hpp RecoveryConfig,
// the machines' checkpoint phases, and the simulation's replica groups):
// checkpoint/restart resumes from committed progress, replication's first
// completion wins, and the waste accounting decomposes machine wallclock into
// useful + lost + checkpoint-overhead for every way a run can end.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_model.hpp"
#include "reports/report.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "workload/workload.hpp"

namespace {

using e2c::fault::FaultConfig;
using e2c::fault::FaultMode;
using e2c::fault::FaultTraceEntry;
using e2c::fault::RecoveryStrategy;
using e2c::hetero::EetMatrix;
using e2c::sched::Simulation;
using e2c::sched::SystemConfig;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::Workload;

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

// One machine where T1 takes exactly 10 s: long enough to cut into
// checkpoint segments and crash mid-run.
SystemConfig one_machine_system() {
  EetMatrix eet({"T1"}, {"m0"}, {{10.0}});
  return e2c::sched::make_default_system(std::move(eet));
}

SystemConfig two_machine_system() {
  EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {5.0, 2.0}});
  return e2c::sched::make_default_system(std::move(eet));
}

FaultConfig trace_faults(std::vector<FaultTraceEntry> entries) {
  FaultConfig faults;
  faults.enabled = true;
  faults.mode = FaultMode::kTrace;
  faults.trace = std::move(entries);
  return faults;
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

// ---- checkpoint / restart -------------------------------------------------

TEST(CheckpointRecovery, ResumesFromLastCheckpointAfterCrash) {
  // exec 10 s, τ = 2, free checkpoints, crash at 5, repair at 7.
  // Commits land at 2 and 4; the crash loses only the 1 s since the last
  // commit. The retry (backoff 1 s) waits out the repair and resumes the
  // remaining 60% at t = 7, completing at 13 — a from-scratch resubmit
  // would finish at 17.
  SystemConfig system = one_machine_system();
  system.faults = trace_faults({{0, 5.0, 7.0}});
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 2.0;
  system.faults.recovery.checkpoint_cost = 0.0;
  system.faults.recovery.restart_cost = 0.0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.retries(0), 1u);
  EXPECT_DOUBLE_EQ(state.completion_time(0), 13.0);
  EXPECT_DOUBLE_EQ(state.useful_seconds[0], 10.0);
  EXPECT_DOUBLE_EQ(state.lost_seconds(0), 1.0);
  EXPECT_DOUBLE_EQ(state.checkpoint_overhead_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(state.machine_seconds[0], 11.0);
  // Two commits per run: t = 2, 4 before the crash; t = 9, 11 after.
  ASSERT_TRUE(state.has_checkpoint_column());
  ASSERT_EQ(state.checkpoint_times[0].size(), 4u);
  EXPECT_DOUBLE_EQ(state.checkpoint_times[0][0], 2.0);
  EXPECT_DOUBLE_EQ(state.checkpoint_times[0][1], 4.0);
  EXPECT_DOUBLE_EQ(state.checkpoint_times[0][2], 9.0);
  EXPECT_DOUBLE_EQ(state.checkpoint_times[0][3], 11.0);
  EXPECT_EQ(simulation.checkpoints_taken(), 4u);
  EXPECT_DOUBLE_EQ(simulation.lost_work_seconds(), 1.0);
  expect_waste_invariant(simulation);
}

TEST(CheckpointRecovery, ChargesWriteAndRestartCosts) {
  // τ = 3, C = 0.5, R = 1. One commit (write 3..3.5) lands before the crash
  // at 5; the 1.5 s since is lost. The restart at 7 reloads for 1 s, commits
  // twice more and finishes at 16:
  //   useful 10 + lost 1.5 + overhead (0.5·3 writes + 1 restart) = 14
  // which is exactly the 5 + 9 s the machine spent on the task.
  SystemConfig system = one_machine_system();
  system.faults = trace_faults({{0, 5.0, 7.0}});
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 3.0;
  system.faults.recovery.checkpoint_cost = 0.5;
  system.faults.recovery.restart_cost = 1.0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_NEAR(state.completion_time(0), 16.0, 1e-9);
  EXPECT_NEAR(state.useful_seconds[0], 10.0, 1e-9);
  EXPECT_NEAR(state.lost_seconds(0), 1.5, 1e-9);
  EXPECT_NEAR(state.checkpoint_overhead_seconds(0), 2.5, 1e-9);
  EXPECT_NEAR(state.machine_seconds[0], 14.0, 1e-9);
  EXPECT_EQ(simulation.checkpoints_taken(), 3u);
  expect_waste_invariant(simulation);
}

TEST(CheckpointRecovery, RestartNeverResurrectsPastDeadline) {
  // Same crash/restart as above (free checkpoints) but the deadline at 8
  // arrives mid-restart-run; committed progress does not buy an extension.
  SystemConfig system = one_machine_system();
  system.faults = trace_faults({{0, 5.0, 7.0}});
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 2.0;
  system.faults.recovery.checkpoint_cost = 0.0;
  system.faults.recovery.restart_cost = 0.0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 8.0)}));
  simulation.run();

  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kDropped);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 8.0);
  EXPECT_GT(state.completed_fraction[0], 0.0);  // it had checkpointed progress...
  EXPECT_LT(state.completed_fraction[0], 1.0);  // ...but never completed
  EXPECT_EQ(simulation.counters().completed, 0u);
  EXPECT_EQ(simulation.counters().dropped, 1u);
  EXPECT_TRUE(simulation.finished());
  expect_waste_invariant(simulation);
}

TEST(CheckpointRecovery, ResumeOnDifferentMachineUsesItsOwnSpeed) {
  // Progress travels as a *fraction*: T1 checkpoints 50% on m0 (eet 4) before
  // the crash, then finishes the remaining 50% on m1 at m1's speed (eet 6).
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 2.0, 1000.0}});
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 1.0;
  system.faults.recovery.checkpoint_cost = 0.0;
  system.faults.recovery.restart_cost = 0.0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.machine[0], 1u);
  // Crash at 2 with commits at 1 and 2: fraction 2/4 = 0.5. Retry at 3 maps
  // to m1; the remaining half of T1 there is 0.5 · 6 = 3 s -> done at 6.
  EXPECT_DOUBLE_EQ(state.completion_time(0), 6.0);
  EXPECT_DOUBLE_EQ(state.lost_seconds(0), 0.0);
  expect_waste_invariant(simulation);
}

// ---- replication ----------------------------------------------------------

TEST(ReplicateRecovery, FirstCompletionWinsAndCancelsSiblings) {
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({});  // enabled, but nothing ever crashes
  system.faults.recovery.strategy = RecoveryStrategy::kReplicate;
  system.faults.recovery.replicas = 2;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  // The workload expanded to primary + clone on distinct machines; the copy
  // on m0 (eet 4) beats the one on m1 (eet 6).
  const auto& state = simulation.task_state();
  ASSERT_EQ(state.size(), 2u);
  ASSERT_TRUE(state.has_replica_column());
  EXPECT_EQ(state.replica_of[0], e2c::workload::kNoTaskId);
  EXPECT_EQ(state.replica_of[1], 0u);

  EXPECT_EQ(simulation.counters().total, 1u);  // one outcome per submitted task
  EXPECT_EQ(simulation.counters().completed, 1u);
  EXPECT_EQ(simulation.counters().replicas_cancelled, 1u);
  const std::size_t winner = state.status[0] == TaskStatus::kCompleted ? 0 : 1;
  const std::size_t loser = 1 - winner;
  EXPECT_EQ(state.status[winner], TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(state.completion_time(winner), 4.0);
  EXPECT_EQ(state.status[loser], TaskStatus::kReplicaCancelled);
  EXPECT_DOUBLE_EQ(state.missed_time(loser), 4.0);
  // The loser ran on the other machine for the full 4 s — charged as waste.
  EXPECT_DOUBLE_EQ(simulation.counters().cancelled_replica_seconds, 4.0);
  // The cancel frees the loser's machine slot.
  for (std::size_t m = 0; m < simulation.machine_count(); ++m) {
    EXPECT_FALSE(simulation.machine(m).busy());
    EXPECT_EQ(simulation.machine(m).queue_length(), 0u);
  }
  EXPECT_TRUE(simulation.finished());
  expect_waste_invariant(simulation);
}

TEST(ReplicateRecovery, GroupFailureCountsOnce) {
  // Both machines crash at t = 1 and stay down; no retries. Both copies fail,
  // but the group yields exactly one outcome.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 1.0, 1000.0}, {1, 1.0, 1000.0}});
  system.faults.retry.max_retries = 0;
  system.faults.recovery.strategy = RecoveryStrategy::kReplicate;
  system.faults.recovery.replicas = 2;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  EXPECT_EQ(simulation.counters().total, 1u);
  EXPECT_EQ(simulation.counters().failed, 1u);
  EXPECT_EQ(simulation.counters().completed, 0u);
  EXPECT_EQ(simulation.counters().replicas_cancelled, 0u);
  for (const TaskStatus status : simulation.task_state().status) {
    EXPECT_EQ(status, TaskStatus::kFailed);
  }
  EXPECT_TRUE(simulation.finished());
  expect_waste_invariant(simulation);
}

TEST(ReplicateRecovery, ReplicaSurvivesTheCrashThatKillsThePrimary) {
  // m0 (the faster pick, so the primary lands there) crashes at 2 and stays
  // down; the clone on m1 rides it out and completes at 6. Replication turns
  // what resubmit would recover slowly into an on-time completion.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 2.0, 1000.0}});
  system.faults.retry.max_retries = 0;  // the aborted primary is out
  system.faults.recovery.strategy = RecoveryStrategy::kReplicate;
  system.faults.recovery.replicas = 2;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();

  EXPECT_EQ(simulation.counters().total, 1u);
  EXPECT_EQ(simulation.counters().completed, 1u);
  EXPECT_EQ(simulation.counters().failed, 0u);  // the group completed
  bool completed_on_m1 = false;
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.status[i] == TaskStatus::kCompleted) {
      completed_on_m1 = state.machine[i] == 1u;
      EXPECT_DOUBLE_EQ(state.completion_time(i), 6.0);
    }
  }
  EXPECT_TRUE(completed_on_m1);
  expect_waste_invariant(simulation);
}

// ---- determinism and stochastic invariants --------------------------------

std::vector<std::vector<std::string>> stochastic_run(RecoveryStrategy strategy) {
  SystemConfig system = two_machine_system();
  system.faults.enabled = true;
  system.faults.mtbf = 12.0;
  system.faults.mttr = 3.0;
  system.faults.seed = 77;
  system.faults.recovery.strategy = strategy;
  system.faults.recovery.checkpoint_interval = 1.0;
  system.faults.recovery.checkpoint_cost = 0.25;
  system.faults.recovery.restart_cost = 0.25;
  system.faults.recovery.replicas = 2;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 30; ++i) {
    tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.6,
                              static_cast<double>(i) * 0.6 + 20.0));
  }
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  return e2c::reports::task_report(simulation);
}

TEST(RecoveryDeterminism, EveryStrategyIsBitIdenticalUnderSeed) {
  for (const RecoveryStrategy strategy :
       {RecoveryStrategy::kResubmit, RecoveryStrategy::kCheckpoint,
        RecoveryStrategy::kReplicate}) {
    EXPECT_EQ(stochastic_run(strategy), stochastic_run(strategy))
        << e2c::fault::recovery_strategy_name(strategy);
  }
}

TEST(RecoveryWaste, InvariantHoldsUnderStochasticChurn) {
  // Low MTBF means plenty of crashes, retries, checkpoints, deadline drops
  // and replica cancels — the decomposition must hold for every task record
  // no matter how its run ended.
  for (const RecoveryStrategy strategy :
       {RecoveryStrategy::kResubmit, RecoveryStrategy::kCheckpoint,
        RecoveryStrategy::kReplicate}) {
    SystemConfig system = two_machine_system();
    system.faults.enabled = true;
    system.faults.mtbf = 8.0;
    system.faults.mttr = 2.0;
    system.faults.seed = 5;
    system.faults.recovery.strategy = strategy;
    system.faults.recovery.checkpoint_interval = 0.75;
    system.faults.recovery.checkpoint_cost = 0.1;
    system.faults.recovery.restart_cost = 0.2;
    system.faults.recovery.replicas = 2;
    Simulation simulation(system, e2c::sched::make_policy("MM"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 40; ++i) {
      tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.5,
                                static_cast<double>(i) * 0.5 + 15.0));
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();
    EXPECT_TRUE(simulation.finished())
        << e2c::fault::recovery_strategy_name(strategy);
    const auto& counters = simulation.counters();
    EXPECT_EQ(counters.completed + counters.cancelled + counters.dropped +
                  counters.failed,
              counters.total)
        << e2c::fault::recovery_strategy_name(strategy);
    expect_waste_invariant(simulation);
  }
}

TEST(RecoveryWaste, ResubmitMatchesPriorBehaviourExactly) {
  // With the default resubmit strategy the schedule must be byte-for-byte
  // what it was before recovery strategies existed: same completions, and
  // the whole aborted prefix shows up as lost work.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 2.0, 100.0}});
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(state.completion_time(0), 9.0);  // as in test_fault.cpp
  EXPECT_DOUBLE_EQ(state.lost_seconds(0), 2.0);     // 2 s burned on m0
  EXPECT_DOUBLE_EQ(state.useful_seconds[0], 6.0);   // full T1-on-m1 run
  EXPECT_DOUBLE_EQ(state.checkpoint_overhead_seconds(0), 0.0);
  EXPECT_EQ(simulation.checkpoints_taken(), 0u);
  expect_waste_invariant(simulation);
}

}  // namespace
