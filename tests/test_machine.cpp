// Unit tests for the machine model (machines/machine.hpp).
#include "machines/machine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "util/error.hpp"
#include "workload/task_state.hpp"

namespace {

using e2c::core::Engine;
using e2c::hetero::MachineTypeSpec;
using e2c::machines::kUnboundedQueue;
using e2c::machines::Machine;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::TaskStateSoA;

class RecordingListener final : public e2c::machines::MachineListener {
 public:
  void on_task_completed(std::size_t task, e2c::hetero::MachineId machine) override {
    completed.push_back({task, machine});
  }
  void on_slot_freed(e2c::hetero::MachineId machine) override {
    slots_freed.push_back(machine);
  }
  std::vector<std::pair<std::size_t, e2c::hetero::MachineId>> completed;
  std::vector<e2c::hetero::MachineId> slots_freed;
};

/// A task-state table of \p count rows (task id == row index, type 0,
/// arrival 0) — machines address tasks by row.
struct TaskTable {
  explicit TaskTable(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      TaskDef def;
      def.id = i;
      def.type = 0;
      def.arrival = 0.0;
      defs.push_back(def);
    }
    state.adopt(defs);
  }
  std::vector<TaskDef> defs;
  TaskStateSoA state;
};

MachineTypeSpec power_spec() { return MachineTypeSpec{"test", 10.0, 110.0}; }

TEST(Machine, RunsTasksSequentially) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  RecordingListener listener;
  machine.set_listener(&listener);
  TaskTable table(2);
  machine.set_task_state(&table.state);

  machine.enqueue(0, 3.0);
  machine.enqueue(1, 2.0);
  EXPECT_TRUE(machine.busy());
  EXPECT_EQ(machine.queue_length(), 1u);

  engine.run();
  EXPECT_EQ(table.state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(table.state.status[1], TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(table.state.completion_time(0), 3.0);
  EXPECT_DOUBLE_EQ(table.state.completion_time(1), 5.0);  // waited for task 0
  EXPECT_DOUBLE_EQ(table.state.start_time[1], 3.0);
  ASSERT_EQ(listener.completed.size(), 2u);
  EXPECT_EQ(listener.completed[0].first, 0u);
}

TEST(Machine, TaskRecordUpdatedOnEnqueue) {
  Engine engine;
  Machine machine(engine, 3, "m4", 1, power_spec(), kUnboundedQueue);
  TaskTable table(1);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 2.0);
  // Idle machine: task starts immediately (status running).
  EXPECT_EQ(table.state.status[0], TaskStatus::kRunning);
  EXPECT_EQ(table.state.machine[0], 3u);
  EXPECT_DOUBLE_EQ(table.state.assignment_time[0], 0.0);
  EXPECT_DOUBLE_EQ(table.state.start_time[0], 0.0);
}

TEST(Machine, QueuedTaskStatusIsMachineQueue) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 5.0);
  machine.enqueue(1, 1.0);
  EXPECT_EQ(table.state.status[1], TaskStatus::kInMachineQueue);
  EXPECT_EQ(machine.queued_task_ids(), std::vector<e2c::workload::TaskId>{1});
  EXPECT_EQ(machine.running_task_id().value(), 0u);
}

TEST(Machine, BoundedQueueCapacity) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), /*queue_capacity=*/1);
  TaskTable table(3);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 5.0);  // starts; queue empty
  EXPECT_TRUE(machine.has_queue_space());
  machine.enqueue(1, 5.0);  // occupies the single waiting slot
  EXPECT_FALSE(machine.has_queue_space());
  EXPECT_THROW(machine.enqueue(2, 5.0), e2c::InvariantError);
}

TEST(Machine, ReadyTimeAccountsForQueue) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  EXPECT_DOUBLE_EQ(machine.ready_time(), 0.0);  // idle
  machine.enqueue(0, 4.0);
  EXPECT_DOUBLE_EQ(machine.ready_time(), 4.0);
  machine.enqueue(1, 2.5);
  EXPECT_DOUBLE_EQ(machine.ready_time(), 6.5);
  EXPECT_DOUBLE_EQ(machine.expected_completion(1.0), 7.5);
}

TEST(Machine, RemoveRunningTaskCancelsCompletion) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  RecordingListener listener;
  machine.set_listener(&listener);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 10.0);
  machine.enqueue(1, 2.0);

  // Advance to t=4 via a control event, then drop the running task.
  (void)engine.schedule_at(4.0, e2c::core::EventPriority::kControl, "drop",
                           [&] { EXPECT_TRUE(machine.remove(0)); });
  engine.run();
  // Task 0 never completed; task 1 ran right after the drop: 4 + 2 = 6.
  EXPECT_FALSE(e2c::core::time_set(table.state.completion_time(0)));
  EXPECT_EQ(table.state.status[1], TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(table.state.start_time[1], 4.0);
  EXPECT_DOUBLE_EQ(table.state.completion_time(1), 6.0);
  ASSERT_EQ(listener.completed.size(), 1u);
  EXPECT_EQ(listener.completed[0].first, 1u);
}

TEST(Machine, RemoveQueuedTask) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 5.0);
  machine.enqueue(1, 5.0);
  EXPECT_TRUE(machine.remove(1));
  EXPECT_EQ(machine.queue_length(), 0u);
  EXPECT_FALSE(machine.remove(1));   // already gone
  EXPECT_FALSE(machine.remove(99));  // never there
}

TEST(Machine, StatsCountCompletionsAndDrops) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 3.0);
  machine.enqueue(1, 3.0);
  (void)engine.schedule_at(4.0, e2c::core::EventPriority::kControl, "drop",
                           [&] { (void)machine.remove(1); });
  engine.run();
  const auto stats = machine.finalize_stats(engine.now());
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.tasks_dropped, 1u);
  // Task 0 ran 3 s; task 1 ran from 3 to 4 before the drop.
  EXPECT_DOUBLE_EQ(stats.busy_seconds, 4.0);
}

TEST(Machine, UtilizationAndEnergy) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(1);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 4.0);
  engine.run();
  const double horizon = 10.0;
  const auto stats = machine.finalize_stats(horizon);
  EXPECT_DOUBLE_EQ(stats.utilization(), 0.4);
  // 4 s busy at 110 W + 6 s idle at 10 W = 440 + 60 = 500 J.
  EXPECT_DOUBLE_EQ(machine.energy_joules(horizon), 500.0);
}

TEST(Machine, EnergyOfIdleMachine) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  EXPECT_DOUBLE_EQ(machine.energy_joules(100.0), 1000.0);  // all idle
}

TEST(Machine, InFlightBusyTimeCountedAtHorizon) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(1);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 10.0);
  // Don't run the engine: the task is mid-flight at t=0, horizon 4 counts
  // min(horizon, finish) - start = 4 busy seconds.
  const auto stats = machine.finalize_stats(4.0);
  EXPECT_DOUBLE_EQ(stats.busy_seconds, 4.0);
}

TEST(Machine, EnqueueValidatesExecTime) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), kUnboundedQueue);
  TaskTable table(1);
  machine.set_task_state(&table.state);
  EXPECT_THROW(machine.enqueue(0, 0.0), e2c::InvariantError);
  EXPECT_THROW(machine.enqueue(0, -2.0), e2c::InvariantError);
}

TEST(Machine, SlotFreedFiredWhenQueuedTaskStarts) {
  Engine engine;
  Machine machine(engine, 0, "m1", 0, power_spec(), 2);
  RecordingListener listener;
  machine.set_listener(&listener);
  TaskTable table(2);
  machine.set_task_state(&table.state);
  machine.enqueue(0, 1.0);  // starts immediately -> slot event
  machine.enqueue(1, 1.0);  // waits
  const auto initial = listener.slots_freed.size();
  engine.run();  // task 0 completes, task 1 starts -> another slot event
  EXPECT_GT(listener.slots_freed.size(), initial);
}

}  // namespace
