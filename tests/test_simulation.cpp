// Integration-grade unit tests for the Simulation (sched/simulation.hpp):
// the full arrival -> batch queue -> scheduler -> machine -> terminal-state
// pipeline of the paper's Fig. 1.
#include "sched/simulation.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sched/registry.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

using e2c::core::EventPriority;
using e2c::hetero::EetMatrix;
using e2c::sched::Simulation;
using e2c::sched::SystemConfig;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::Workload;

// Two machines: m0 generalist, m1 specialist for T2.
SystemConfig two_machine_system(std::size_t queue_capacity = 2) {
  EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {5.0, 2.0}});
  return e2c::sched::make_default_system(std::move(eet), queue_capacity);
}

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

TEST(Simulation, SingleTaskCompletes) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 1.0, 100.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.machine[0], 0u);  // T1 fastest on m0
  EXPECT_DOUBLE_EQ(state.start_time[0], 1.0);
  EXPECT_DOUBLE_EQ(state.completion_time(0), 5.0);
  EXPECT_EQ(simulation.counters().completed, 1u);
  EXPECT_TRUE(simulation.finished());
}

TEST(Simulation, InfiniteDeadlineNeverCancelled) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("FCFS"));
  simulation.load(Workload({make_task(0, 0, 0.0, e2c::core::kTimeInfinity)}));
  simulation.run();
  EXPECT_EQ(simulation.task_state().status[0], TaskStatus::kCompleted);
}

TEST(Simulation, TaskDroppedWhenDeadlinePassesMidRun) {
  // T1 on m0 takes 4 s; deadline at 3 s drops it mid-execution (paper: "if a
  // task missed its deadline while executing on the machine, it is dropped").
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 3.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kDropped);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 3.0);
  EXPECT_FALSE(e2c::core::time_set(state.completion_time(0)));
  EXPECT_EQ(simulation.counters().dropped, 1u);
  EXPECT_EQ(simulation.counters().completed, 0u);
}

TEST(Simulation, CompletionExactlyAtDeadlineCounts) {
  // T1 on m0: completes at exactly 4.0 == deadline -> completed, not dropped
  // (completion events outrank deadline events at equal times).
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 4.0)}));
  simulation.run();
  EXPECT_EQ(simulation.task_state().status[0], TaskStatus::kCompleted);
}

TEST(Simulation, DeadlineAtExactDispatchInstantCancels) {
  // Queue capacity 1 on each machine: task 2 waits in the batch queue until a
  // slot frees at t=4 when task 0 completes. Its deadline is also 4.0 — and
  // deadline events outrank scheduler events at equal times, so the task is
  // cancelled at the very instant it would otherwise have been dispatched.
  Simulation simulation(two_machine_system(1), e2c::sched::make_policy("MM"));
  simulation.load(Workload({make_task(0, 0, 0.0, 100.0), make_task(1, 0, 0.0, 100.0),
                            make_task(2, 0, 0.0, 4.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[2], TaskStatus::kCancelled);
  EXPECT_DOUBLE_EQ(state.missed_time(2), 4.0);
  EXPECT_EQ(state.machine[2], e2c::workload::kNoMachine);
  EXPECT_EQ(simulation.counters().cancelled, 1u);
  EXPECT_EQ(simulation.counters().completed, 2u);
}

TEST(Simulation, TaskCancelledWhenStuckInBatchQueue) {
  // Batch mode, queue capacity 1. Three simultaneous T1 tasks: two can be
  // mapped (one running + one queued per... two machines), the extras wait in
  // the batch queue. With tight deadlines the waiting task is cancelled.
  SystemConfig system = two_machine_system(/*queue_capacity=*/1);
  Simulation simulation(system, e2c::sched::make_policy("MM"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 6; ++i) {
    tasks.push_back(make_task(i, 0, 0.0, 4.5));  // only the first wave fits
  }
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  EXPECT_GT(simulation.counters().cancelled, 0u);
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.status[i] == TaskStatus::kCancelled) {
      EXPECT_EQ(state.machine[i], e2c::workload::kNoMachine);
      EXPECT_DOUBLE_EQ(state.missed_time(i), 4.5);
    }
  }
}

TEST(Simulation, MissedTasksPanelOrderedByMissTime) {
  SystemConfig system = two_machine_system();
  Simulation simulation(system, e2c::sched::make_policy("FCFS"));
  simulation.load(Workload({make_task(0, 0, 0.0, 2.0),   // dropped at 2
                            make_task(1, 0, 0.5, 3.0)}));  // dropped at 3
  simulation.run();
  const auto missed = simulation.missed_tasks();
  ASSERT_EQ(missed.size(), 2u);
  const auto& state = simulation.task_state();
  EXPECT_LE(state.missed_time(missed[0]), state.missed_time(missed[1]));
}

TEST(Simulation, CountersAddUp) {
  SystemConfig system = two_machine_system(1);
  Simulation simulation(system, e2c::sched::make_policy("MSD"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 20; ++i) {
    tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.3,
                              static_cast<double>(i) * 0.3 + 6.0));
  }
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  const auto& counters = simulation.counters();
  EXPECT_EQ(counters.total, 20u);
  EXPECT_EQ(counters.completed + counters.cancelled + counters.dropped, counters.total);
  EXPECT_TRUE(simulation.finished());
  for (std::size_t i = 0; i < simulation.task_state().size(); ++i) {
    EXPECT_TRUE(simulation.task_state().finished(i));
  }
}

TEST(Simulation, ImmediatePolicyEmptiesBatchQueueInstantly) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 10; ++i) {
    tasks.push_back(make_task(i, 0, 0.0, 1000.0));
  }
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  // Unbounded machine queues: nothing is ever left unmapped.
  EXPECT_EQ(simulation.counters().completed, 10u);
  EXPECT_TRUE(simulation.batch_queue_ids().empty());
}

TEST(Simulation, MectSpreadsLoadAcrossMachines) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 8; ++i) tasks.push_back(make_task(i, 0, 0.0, 1000.0));
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  const auto s0 = simulation.machine(0).finalize_stats(simulation.engine().now());
  const auto s1 = simulation.machine(1).finalize_stats(simulation.engine().now());
  EXPECT_GT(s0.tasks_completed, 0u);
  EXPECT_GT(s1.tasks_completed, 0u);  // overflowed onto the slower machine
}

TEST(Simulation, DeterministicReplay) {
  // Same system, workload, policy -> bit-identical task records.
  const SystemConfig system = two_machine_system();
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 30; ++i) {
    tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.7,
                              static_cast<double>(i) * 0.7 + 9.0));
  }
  const Workload workload((std::vector<TaskDef>(tasks)));

  auto run_once = [&] {
    Simulation simulation(system, e2c::sched::make_policy("MM"));
    simulation.load(workload);
    simulation.run();
    std::vector<std::tuple<TaskStatus, std::uint32_t, double>> records;
    const auto& state = simulation.task_state();
    for (std::size_t i = 0; i < state.size(); ++i) {
      records.emplace_back(state.status[i], state.machine[i], state.completion_time(i));
    }
    return records;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, StepMatchesRun) {
  const SystemConfig system = two_machine_system();
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 10; ++i) {
    tasks.push_back(make_task(i, i % 2, static_cast<double>(i), 1000.0));
  }
  const Workload workload((std::vector<TaskDef>(tasks)));

  Simulation run_sim(system, e2c::sched::make_policy("MECT"));
  run_sim.load(workload);
  run_sim.run();

  Simulation step_sim(system, e2c::sched::make_policy("MECT"));
  step_sim.load(workload);
  while (step_sim.step()) {
  }
  EXPECT_EQ(step_sim.counters().completed, run_sim.counters().completed);
  EXPECT_DOUBLE_EQ(step_sim.engine().now(), run_sim.engine().now());
}

TEST(Simulation, EnergyPositiveAndSplitAcrossMachines) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 100.0)}));
  simulation.run();
  const double total = simulation.total_energy_joules();
  EXPECT_GT(total, 0.0);
  double by_machine = 0.0;
  for (std::size_t m = 0; m < simulation.machine_count(); ++m) {
    by_machine += simulation.machine(m).energy_joules(simulation.engine().now());
  }
  EXPECT_NEAR(total, by_machine, 1e-9);
}

TEST(Simulation, TypeOntimeRateTracksOutcomes) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({
      make_task(0, 0, 0.0, 100.0),  // completes
      make_task(1, 1, 0.0, 1.0),    // T2 on m1 takes 2 s -> dropped at 1
  }));
  simulation.run();
  EXPECT_DOUBLE_EQ(simulation.type_ontime_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(simulation.type_ontime_rate(1), 0.0);
  EXPECT_THROW((void)simulation.type_ontime_rate(9), e2c::InputError);
}

TEST(Simulation, GuardsMisuse) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("FCFS"));
  EXPECT_THROW(simulation.run(), e2c::InputError);  // load() first
  simulation.load(Workload({make_task(0, 0, 0.0, 10.0)}));
  EXPECT_THROW(simulation.load(Workload(std::vector<TaskDef>{})),
               e2c::InputError);  // only once
}

TEST(Simulation, RejectsBadConstruction) {
  EXPECT_THROW(Simulation(two_machine_system(), nullptr), e2c::InputError);
  SystemConfig no_machines = two_machine_system();
  no_machines.machines.clear();
  EXPECT_THROW(Simulation(no_machines, e2c::sched::make_policy("FCFS")), e2c::InputError);
  SystemConfig bad_type = two_machine_system();
  bad_type.machines[0].type = 99;
  EXPECT_THROW(Simulation(bad_type, e2c::sched::make_policy("FCFS")), e2c::InputError);
}

TEST(Simulation, RejectsDuplicateTaskIds) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("FCFS"));
  EXPECT_THROW(
      simulation.load(Workload({make_task(3, 0, 0.0, 5.0), make_task(3, 0, 1.0, 6.0)})),
      e2c::InputError);
}

TEST(Simulation, DuplicateTaskIdErrorPinsExactText) {
  // Non-dense ids take the id->row map path, which names the repeated id.
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("FCFS"));
  try {
    simulation.load(Workload({make_task(7, 0, 0.0, 5.0), make_task(9, 0, 0.5, 5.0),
                              make_task(7, 1, 1.0, 6.0)}));
    FAIL() << "duplicate id accepted";
  } catch (const e2c::InputError& error) {
    EXPECT_STREQ(error.what(), "Simulation: duplicate task id 7");
  }
}

TEST(Simulation, CsvTraceWithSparseIdsMapsById) {
  // Ids {5, 3, 9} are neither dense nor ascending, so every assignment and
  // missed-task lookup goes through the id -> row map.
  const SystemConfig system = two_machine_system();
  const Workload trace = Workload::from_csv_text(
      "task_id,task_type,arrival_time,deadline\n"
      "5,T1,0.0,100\n3,T2,1.0,100\n9,T1,2.0,2.5\n",
      system.eet);
  ASSERT_FALSE(trace.dense_ids());
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(trace);
  simulation.run();
  const auto& state = simulation.task_state();
  ASSERT_EQ(state.size(), 3u);
  EXPECT_EQ(state.id(0), 5u);
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.machine[0], 0u);
  EXPECT_EQ(state.id(1), 3u);
  EXPECT_EQ(state.status[1], TaskStatus::kCompleted);
  EXPECT_EQ(state.machine[1], 1u);
  // Task 9 queues behind task 5 on m0 and misses its deadline there.
  EXPECT_EQ(state.id(2), 9u);
  EXPECT_EQ(state.status[2], TaskStatus::kDropped);
  EXPECT_EQ(simulation.missed_tasks(), std::vector<std::size_t>{2});
}

TEST(Simulation, RejectsWorkloadOutsideEet) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("FCFS"));
  EXPECT_THROW(simulation.load(Workload({make_task(0, 7, 0.0, 5.0)})), e2c::InputError);
}

// Conservative batch policy that maps tasks only onto *idle* machines (a
// shape students actually write: "wait until the machine is free"). It keeps
// the rest of the batch queue waiting for the next scheduling trigger, which
// makes it sensitive to a trigger being lost.
class IdleOnlyPolicy : public e2c::sched::Policy {
 public:
  [[nodiscard]] std::string name() const override { return "IdleOnly"; }
  [[nodiscard]] e2c::sched::PolicyMode mode() const override {
    return e2c::sched::PolicyMode::kBatch;
  }
  void schedule_into(e2c::sched::SchedulingContext& context,
                     std::vector<e2c::sched::Assignment>& out) override {
    out.clear();
    for (const TaskDef* task : context.batch_queue()) {
      for (std::size_t m = 0; m < context.machines().size(); ++m) {
        const e2c::sched::MachineView& view = context.machines()[m];
        if (view.free_slots == 0) continue;
        if (view.ready_time > context.now()) continue;  // busy: defer the task
        out.push_back(e2c::sched::Assignment{task->id, view.id});
        context.commit(*task, m);
        break;
      }
    }
  }
};

TEST(Simulation, DeadlineDropOfRunningTaskRetriggersScheduler) {
  // Regression: Machine::remove on the *running* task with an empty local
  // queue used to skip the on_slot_freed notification (start_next() returns
  // early before reaching it), so no scheduling round ever followed and
  // batch-queue tasks waited forever. One machine; A and B arrive at t=0;
  // the idle-only policy maps A and defers B; A's deadline at t=2 drops it
  // mid-run with nothing queued locally. B must dispatch at the drop instant.
  EetMatrix eet({"T1"}, {"m0"}, {{4.0}});
  SystemConfig system = e2c::sched::make_default_system(std::move(eet), 2);
  Simulation simulation(std::move(system), std::make_unique<IdleOnlyPolicy>());
  simulation.load(Workload({make_task(0, 0, 0.0, 2.0),
                            make_task(1, 0, 0.0, e2c::core::kTimeInfinity)}));
  simulation.run();

  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kDropped);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 2.0);

  // Pre-fix, B was stuck in the batch queue when the calendar drained.
  EXPECT_EQ(state.status[1], TaskStatus::kCompleted);
  ASSERT_TRUE(e2c::core::time_set(state.start_time[1]));
  EXPECT_DOUBLE_EQ(state.start_time[1], 2.0);  // dispatched at the drop
  EXPECT_DOUBLE_EQ(state.completion_time(1), 6.0);
  EXPECT_TRUE(simulation.finished());
  EXPECT_TRUE(simulation.batch_queue_ids().empty());
}

// Batch policy that counts its invocations and maps tasks in arrival order
// onto the first machine with a free slot.
class CountingBatchPolicy : public e2c::sched::Policy {
 public:
  explicit CountingBatchPolicy(std::size_t& calls) : calls_(calls) {}
  [[nodiscard]] std::string name() const override { return "Counting"; }
  [[nodiscard]] e2c::sched::PolicyMode mode() const override {
    return e2c::sched::PolicyMode::kBatch;
  }
  void schedule_into(e2c::sched::SchedulingContext& context,
                     std::vector<e2c::sched::Assignment>& out) override {
    ++calls_;
    out.clear();
    for (const TaskDef* task : context.batch_queue()) {
      for (std::size_t m = 0; m < context.machines().size(); ++m) {
        if (context.machines()[m].free_slots == 0) continue;
        out.push_back(e2c::sched::Assignment{task->id, context.machines()[m].id});
        context.commit(*task, m);
        break;
      }
    }
  }

 private:
  std::size_t& calls_;
};

TEST(Simulation, ZeroSlotRoundCountsButSkipsPolicy) {
  // One machine, one waiting slot, 10 s tasks arriving every second. A runs
  // from t=0 and B takes the slot at t=1, so the rounds C and D post at t=2
  // and t=3 find every machine full: they count as scheduler invocations but
  // must not reach the policy. A's completion at t=10 frees the slot for C,
  // B's at t=20 for D; later completions find the batch queue empty.
  EetMatrix eet({"T1"}, {"m0"}, {{10.0}});
  SystemConfig system = e2c::sched::make_default_system(std::move(eet), 1);
  std::size_t calls = 0;
  Simulation simulation(std::move(system), std::make_unique<CountingBatchPolicy>(calls));
  const double never = e2c::core::kTimeInfinity;
  simulation.load(Workload({make_task(0, 0, 0.0, never), make_task(1, 0, 1.0, never),
                            make_task(2, 0, 2.0, never), make_task(3, 0, 3.0, never)}));

  // Process every event up to and including t=3 (D's arrival and its round).
  while (simulation.engine().peek_next() && simulation.engine().peek_next()->time <= 3.0) {
    ASSERT_TRUE(simulation.step());
  }
  EXPECT_EQ(simulation.batch_queue_ids().size(), 2u);  // C and D wait
  EXPECT_EQ(simulation.scheduler_invocations(), 4u);
  EXPECT_EQ(calls, 2u);

  simulation.run();
  EXPECT_EQ(simulation.counters().completed, 4u);
  EXPECT_EQ(simulation.scheduler_invocations(), 6u);
  EXPECT_EQ(calls, 4u);
}

TEST(Simulation, BatchQueueVisibleDuringStepping) {
  SystemConfig system = two_machine_system(/*queue_capacity=*/1);
  Simulation simulation(system, e2c::sched::make_policy("MM"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 8; ++i) tasks.push_back(make_task(i, 0, 0.0, 50.0));
  simulation.load(Workload(std::move(tasks)));
  // Step until the scheduler ran once; with 2 machines x (1 run + 1 queued)
  // at most 4 tasks leave the batch queue immediately.
  bool saw_waiting = false;
  while (simulation.step()) {
    if (!simulation.batch_queue_ids().empty() && simulation.engine().now() > 0.0) {
      saw_waiting = true;
    }
  }
  EXPECT_TRUE(saw_waiting);
}

// Deadline checks are armed at the end of the round that follows a task's
// arrival, and only when they can fire (Simulation::unarmed_). These tests
// pin what that skips and what it must keep.

// Steps through the first scheduler round; returns the events then pending.
std::size_t pending_after_first_round(Simulation& simulation) {
  while (const auto next = simulation.engine().peek_next()) {
    EXPECT_TRUE(simulation.step());
    if (next->priority == EventPriority::kSchedule) return simulation.engine().pending_count();
  }
  ADD_FAILURE() << "the run ended before its first scheduler round";
  return 0;
}

TEST(SimulationDeadlineArming, MappedTaskThatCannotMissArmsNoCheck) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 1.0, 100.0)}));
  EXPECT_EQ(pending_after_first_round(simulation), 1u);  // its completion only
  EXPECT_EQ(simulation.engine().peek_next()->priority, EventPriority::kCompletion);
  simulation.run();
  EXPECT_EQ(simulation.task_state().status[0], TaskStatus::kCompleted);
  EXPECT_EQ(simulation.engine().processed_count(), 3u);  // arrival, round, completion
}

TEST(SimulationDeadlineArming, CompletionAtTheDeadlineCountsWithoutACheck) {
  // Three 0.1 s tasks mapped onto one machine in one round complete at
  // 0.1, 0.1 + 0.1 and (0.1 + 0.1) + 0.1 = 0.30000000000000004: the float
  // sum ready_time() adds up after the round. A deadline at exactly that
  // sum needs no check.
  EetMatrix eet({"T1"}, {"m0"}, {{0.1}});
  Simulation simulation(e2c::sched::make_default_system(std::move(eet)),
                        e2c::sched::make_policy("MECT"));
  const double deadline = 0.1 + 0.1 + 0.1;
  simulation.load(Workload({make_task(0, 0, 0.0, deadline), make_task(1, 0, 0.0, deadline),
                            make_task(2, 0, 0.0, deadline)}));
  // Task 0's completion, and the round its start posted while tasks 1 and 2
  // were still in the batch queue.
  EXPECT_EQ(pending_after_first_round(simulation), 2u);
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(simulation.counters().completed, 3u);
  EXPECT_EQ(state.completion_time(2), deadline);
}

TEST(SimulationDeadlineArming, TaskProjectedPastItsDeadlineIsDroppedAtIt) {
  // One 4 s machine: task 0 runs 0-4, task 1 waits and would end at 8, past
  // its deadline of 6, so its check is armed and drops it mid-run at 6.
  EetMatrix eet({"T1"}, {"m0"}, {{4.0}});
  Simulation simulation(e2c::sched::make_default_system(std::move(eet)),
                        e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 100.0), make_task(1, 0, 0.0, 6.0)}));
  // Task 0's completion, the round its start posted, and task 1's check.
  EXPECT_EQ(pending_after_first_round(simulation), 3u);
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.status[1], TaskStatus::kDropped);
  EXPECT_DOUBLE_EQ(state.start_time[1], 4.0);
  EXPECT_DOUBLE_EQ(state.missed_time(1), 6.0);
}

TEST(SimulationDeadlineArming, DeadlineAtArrivalCancelsBeforeTheRound) {
  Simulation simulation(two_machine_system(), e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 2.0, 2.0)}));
  std::vector<EventPriority> order;
  while (const auto next = simulation.engine().peek_next()) {
    order.push_back(next->priority);
    ASSERT_TRUE(simulation.step());
  }
  EXPECT_EQ(order, (std::vector<EventPriority>{EventPriority::kArrival, EventPriority::kDeadline,
                                               EventPriority::kSchedule}));
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCancelled);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 2.0);
  EXPECT_EQ(state.machine[0], e2c::workload::kNoMachine);
}

TEST(SimulationDeadlineArming, RunsThatCanFinishLateArmEveryCheck) {
  // A crash or a cold start can finish a task after ready_time() planned,
  // and a transfer delays its enqueue: each keeps the check of a task that
  // would otherwise complete in time. One machine, one 4 s task, deadline
  // 100; every run below has its check pending after the round.
  const auto one_machine = [] {
    return e2c::sched::make_default_system(EetMatrix({"T1"}, {"m0"}, {{4.0}}), 2);
  };
  const Workload workload({make_task(0, 0, 0.0, 100.0)});

  SystemConfig faults = one_machine();
  faults.faults.enabled = true;
  faults.faults.mode = e2c::fault::FaultMode::kTrace;  // no spans: nothing fails
  SystemConfig memory = one_machine();
  memory.memory = e2c::mem::MemoryModel{{1.0}, {0.5}, {8.0}};
  SystemConfig transfer = one_machine();
  transfer.comm = e2c::net::CommModel::uniform(1, 1, /*payload_mb=*/0.0,
                                               e2c::net::LinkSpec{/*latency_seconds=*/1.0});

  for (SystemConfig* system : {&faults, &memory, &transfer}) {
    Simulation simulation(*system, e2c::sched::make_policy("MM"));
    simulation.load(workload);
    // Completion (or transfer) plus the deadline check.
    EXPECT_EQ(pending_after_first_round(simulation), 2u);
    simulation.run();
    EXPECT_EQ(simulation.task_state().status[0], TaskStatus::kCompleted);
  }
}

}  // namespace
