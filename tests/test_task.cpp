// Unit tests for the task model (workload/task.hpp) and the SoA per-run
// state table (workload/task_state.hpp).
#include "workload/task.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "workload/task_state.hpp"

namespace {

using e2c::workload::TaskDef;
using e2c::workload::TaskStateSoA;
using e2c::workload::TaskStatus;

TEST(TaskStatus, Names) {
  EXPECT_STREQ(e2c::workload::task_status_name(TaskStatus::kCompleted), "completed");
  EXPECT_STREQ(e2c::workload::task_status_name(TaskStatus::kCancelled), "cancelled");
  EXPECT_STREQ(e2c::workload::task_status_name(TaskStatus::kDropped), "dropped");
  EXPECT_STREQ(e2c::workload::task_status_name(TaskStatus::kInBatchQueue), "batch-queue");
}

TEST(TaskStatus, TerminalClassification) {
  EXPECT_TRUE(e2c::workload::is_terminal(TaskStatus::kCompleted));
  EXPECT_TRUE(e2c::workload::is_terminal(TaskStatus::kCancelled));
  EXPECT_TRUE(e2c::workload::is_terminal(TaskStatus::kDropped));
  EXPECT_FALSE(e2c::workload::is_terminal(TaskStatus::kPending));
  EXPECT_FALSE(e2c::workload::is_terminal(TaskStatus::kRunning));
  EXPECT_FALSE(e2c::workload::is_terminal(TaskStatus::kInMachineQueue));
}

TEST(TaskDef, DefaultDeadlineIsInfinite) {
  TaskDef task;
  EXPECT_EQ(task.deadline, e2c::core::kTimeInfinity);
}

std::vector<TaskDef> two_tasks() {
  TaskDef a;
  a.id = 0;
  a.arrival = 2.0;
  TaskDef b;
  b.id = 1;
  b.arrival = 3.0;
  return {a, b};
}

TEST(TaskState, ColumnsStartAtSentinels) {
  TaskStateSoA state;
  state.adopt(two_tasks());
  ASSERT_EQ(state.size(), 2u);
  EXPECT_EQ(state.status[0], TaskStatus::kPending);
  EXPECT_EQ(state.machine[0], e2c::workload::kNoMachine);
  EXPECT_FALSE(e2c::core::time_set(state.start_time[0]));
  EXPECT_FALSE(e2c::core::time_set(state.completion_time(0)));
  EXPECT_FALSE(e2c::core::time_set(state.missed_time(0)));
  EXPECT_FALSE(e2c::core::time_set(state.response_time(0)));
  EXPECT_FALSE(e2c::core::time_set(state.wait_time(0)));
  EXPECT_FALSE(state.finished(0));
  EXPECT_FALSE(state.completed(0));
}

TEST(TaskState, DerivedTimesAfterExecution) {
  TaskStateSoA state;
  state.adopt(two_tasks());
  state.start_time[0] = 5.0;
  state.finish(0, TaskStatus::kCompleted, 9.0);
  EXPECT_DOUBLE_EQ(state.wait_time(0), 3.0);      // 5 - arrival 2
  EXPECT_DOUBLE_EQ(state.response_time(0), 7.0);  // 9 - arrival 2
  EXPECT_TRUE(state.finished(0));
  EXPECT_TRUE(state.completed(0));
  // Row 1 untouched.
  EXPECT_FALSE(e2c::core::time_set(state.wait_time(1)));
}

TEST(TaskState, BindAliasesWithoutCopy) {
  const std::vector<TaskDef> trace = two_tasks();
  TaskStateSoA state;
  state.bind(trace);
  ASSERT_EQ(state.size(), 2u);
  EXPECT_EQ(state.defs.data(), trace.data());  // aliased, not copied
  EXPECT_EQ(state.id(1), 1u);
  EXPECT_DOUBLE_EQ(state.arrival(1), 3.0);
}

TEST(TaskState, ResetClearsMutationsAndLazyColumns) {
  TaskStateSoA state;
  state.adopt(two_tasks());
  state.enable_replica_column();
  state.enable_checkpoint_column();
  EXPECT_TRUE(state.has_replica_column());
  EXPECT_TRUE(state.has_checkpoint_column());
  state.status[1] = TaskStatus::kCompleted;
  state.useful_seconds[1] = 4.0;
  state.replica_of[1] = 0;
  state.checkpoint_times[1].push_back(1.5);

  state.reset();
  EXPECT_EQ(state.status[1], TaskStatus::kPending);
  EXPECT_DOUBLE_EQ(state.useful_seconds[1], 0.0);
  EXPECT_FALSE(state.has_replica_column());
  EXPECT_FALSE(state.has_checkpoint_column());
}

TEST(TaskState, LazyColumnsSizedOnEnable) {
  TaskStateSoA state;
  state.adopt(two_tasks());
  EXPECT_FALSE(state.has_replica_column());
  state.enable_replica_column();
  ASSERT_EQ(state.replica_of.size(), 2u);
  EXPECT_EQ(state.replica_of[0], e2c::workload::kNoTaskId);
  state.enable_checkpoint_column();
  ASSERT_EQ(state.checkpoint_times.size(), 2u);
  EXPECT_TRUE(state.checkpoint_times[0].empty());
}

}  // namespace
