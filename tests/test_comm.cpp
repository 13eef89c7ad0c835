// Unit tests for the communication model (net/comm_model.hpp) and its
// integration (transfers, slot reservation, drops in flight).
#include "net/comm_model.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/error.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::net::CommModel;
using e2c::net::LinkSpec;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::Workload;

TEST(CommModel, TransferTimeFormula) {
  const CommModel comm({10.0, 50.0}, {LinkSpec{0.1, 100.0}, LinkSpec{0.0, 25.0}});
  // latency + size/bandwidth
  EXPECT_DOUBLE_EQ(comm.transfer_time(0, 0), 0.1 + 10.0 / 100.0);
  EXPECT_DOUBLE_EQ(comm.transfer_time(1, 1), 50.0 / 25.0);
}

TEST(CommModel, InstantaneousIsZero) {
  const CommModel comm = CommModel::instantaneous(3, 2);
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t m = 0; m < 2; ++m) EXPECT_DOUBLE_EQ(comm.transfer_time(t, m), 0.0);
  }
}

TEST(CommModel, UniformBuilder) {
  const CommModel comm = CommModel::uniform(2, 3, 20.0, LinkSpec{0.5, 10.0});
  EXPECT_DOUBLE_EQ(comm.transfer_time(0, 2), 0.5 + 2.0);
  EXPECT_EQ(comm.task_type_count(), 2u);
  EXPECT_EQ(comm.machine_type_count(), 3u);
}

TEST(CommModel, Validation) {
  EXPECT_THROW(CommModel({-1.0}, {LinkSpec{}}), e2c::InputError);
  EXPECT_THROW(CommModel({1.0}, {LinkSpec{-0.1, 10.0}}), e2c::InputError);
  EXPECT_THROW(CommModel({1.0}, {LinkSpec{0.0, 0.0}}), e2c::InputError);
  CommModel comm = CommModel::instantaneous(1, 1);
  EXPECT_THROW((void)comm.payload_mb(5), e2c::InputError);
  EXPECT_THROW((void)comm.link(5), e2c::InputError);
  EXPECT_THROW(comm.set_payload_mb(0, -2.0), e2c::InputError);
  comm.set_payload_mb(0, 7.0);
  EXPECT_DOUBLE_EQ(comm.payload_mb(0), 7.0);
  comm.set_link(0, LinkSpec{0.2, 5.0});
  EXPECT_DOUBLE_EQ(comm.link(0).latency_seconds, 0.2);
}

// --- simulation integration ------------------------------------------------

e2c::sched::SystemConfig comm_system(double payload_mb, double bandwidth) {
  EetMatrix eet({"T1"}, {"m0", "m1"}, {{4.0, 4.0}});
  auto config = e2c::sched::make_default_system(std::move(eet));
  config.comm = CommModel::uniform(1, 2, payload_mb, LinkSpec{0.0, bandwidth});
  return config;
}

TaskDef make_task(std::uint64_t id, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = 0;
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

TEST(CommSimulation, TransferDelaysExecutionStart) {
  // 10 MB over 10 MB/s = 1 s transfer; execution 4 s; completion at 5.
  auto config = comm_system(10.0, 10.0);
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0.0, 100.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(state.start_time[0], 1.0);
  EXPECT_DOUBLE_EQ(state.completion_time(0), 5.0);
  // Assignment happened at arrival even though execution waited.
  EXPECT_DOUBLE_EQ(state.assignment_time[0], 0.0);
}

TEST(CommSimulation, ZeroPayloadBehavesLikeNoComm) {
  auto config = comm_system(0.0, 10.0);
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0.0, 100.0)}));
  simulation.run();
  EXPECT_DOUBLE_EQ(simulation.task_state().start_time[0], 0.0);
}

TEST(CommSimulation, DroppedWhileTransferring) {
  // Transfer takes 5 s but the deadline hits at 2: dropped in flight, never
  // started, counted against the assigned machine.
  auto config = comm_system(50.0, 10.0);
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0.0, 2.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kDropped);
  EXPECT_FALSE(e2c::core::time_set(state.start_time[0]));
  ASSERT_NE(state.machine[0], e2c::workload::kNoMachine);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 2.0);
  EXPECT_EQ(simulation.counters().dropped, 1u);
  // The reservation was released.
  EXPECT_EQ(simulation.in_flight_count(state.machine[0]), 0u);
}

TEST(CommSimulation, InFlightTasksReserveQueueSlots) {
  // Batch policy, queue capacity 1, slow transfers: the scheduler must not
  // over-commit a machine whose slot is reserved by an in-flight transfer.
  EetMatrix eet({"T1"}, {"m0"}, {{4.0}});
  auto config = e2c::sched::make_default_system(std::move(eet));
  config.machine_queue_capacity = 1;
  config.comm = CommModel::uniform(1, 1, 10.0, LinkSpec{0.0, 10.0});  // 1 s
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MM"));
  simulation.load(Workload({make_task(0, 0.0, 100.0), make_task(1, 0.0, 100.0),
                            make_task(2, 0.0, 100.0)}));
  bool over_reserved = false;
  while (simulation.step()) {
    over_reserved |= simulation.in_flight_count(0) +
                         simulation.machine(0).queue_length() >
                     1;
  }
  EXPECT_FALSE(over_reserved);
  EXPECT_EQ(simulation.counters().completed, 3u);
}

TEST(CommSimulation, CoverageValidatedAtConstruction) {
  EetMatrix eet({"T1", "T2"}, {"m0"}, {{1.0}, {2.0}});
  auto config = e2c::sched::make_default_system(std::move(eet));
  config.comm = CommModel::instantaneous(1, 1);  // too few task types
  EXPECT_THROW(e2c::sched::Simulation(config, e2c::sched::make_policy("FCFS")),
               e2c::InputError);
}

TEST(CommSimulation, SlowLinksReduceCompletionUnderDeadlines) {
  auto run_with_bandwidth = [&](double bandwidth) {
    EetMatrix eet({"T1"}, {"m0", "m1"}, {{2.0, 2.0}});
    auto config = e2c::sched::make_default_system(std::move(eet));
    config.comm = e2c::net::CommModel::uniform(1, 2, 20.0, LinkSpec{0.0, bandwidth});
    e2c::sched::Simulation simulation(config, e2c::sched::make_policy("MECT"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 10; ++i) {
      tasks.push_back(make_task(i, static_cast<double>(i), static_cast<double>(i) + 6.0));
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();
    return simulation.counters().completion_percent();
  };
  // 20 MB at 4 MB/s = 5 s transfer + 2 s execution > the 6 s relative
  // deadline: slow links must cost completions.
  EXPECT_GT(run_with_bandwidth(1000.0), run_with_bandwidth(4.0));
}

}  // namespace
