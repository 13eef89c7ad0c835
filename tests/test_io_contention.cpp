// Tests for the shared checkpoint-I/O channel (fault/io_channel.hpp): fair-
// share bandwidth arbitration, cooperative admission, transfer cancellation,
// the uncontended path's equivalence to the fixed-cost model, the Daly
// closed-form waste validation, and the waste invariant under multi-tenant
// contention.
#include "fault/io_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/tenants.hpp"
#include "fault/fault_model.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "workload/workload.hpp"

namespace {

using e2c::core::Engine;
using e2c::core::EventPriority;
using e2c::fault::FaultConfig;
using e2c::fault::FaultMode;
using e2c::fault::FaultTraceEntry;
using e2c::fault::IoChannel;
using e2c::fault::IoConfig;
using e2c::fault::IoStrategy;
using e2c::fault::RecoveryStrategy;
using e2c::hetero::EetMatrix;
using e2c::sched::Simulation;
using e2c::sched::SystemConfig;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;
using e2c::workload::Workload;

IoConfig io_config(double bandwidth, double checkpoint_bytes, double restart_bytes,
                   IoStrategy strategy = IoStrategy::kSelfish,
                   std::size_t max_writers = 1) {
  IoConfig config;
  config.enabled = true;
  config.bandwidth = bandwidth;
  config.checkpoint_bytes = checkpoint_bytes;
  config.restart_bytes = restart_bytes;
  config.strategy = strategy;
  config.max_writers = max_writers;
  return config;
}

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
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

// ---- channel unit tests ---------------------------------------------------

TEST(IoChannel, SoloTransferTakesBytesOverBandwidth) {
  Engine engine;
  IoChannel channel(engine, io_config(10.0, 100.0, 50.0), 0.5, 0.5);
  EXPECT_DOUBLE_EQ(channel.uncontended_write_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(channel.uncontended_read_seconds(), 5.0);
  double done_at = -1.0;
  (void)channel.begin_checkpoint_write(1, "m0", [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
  EXPECT_EQ(channel.writes_completed(), 1u);
  EXPECT_EQ(channel.peak_concurrent(), 1u);
}

TEST(IoChannel, ConcurrentTransfersFairShareBandwidth) {
  // Two 100-byte writes on a 10 B/s channel: each progresses at 5 B/s, so
  // both take 20 s instead of 10.
  Engine engine;
  IoChannel channel(engine, io_config(10.0, 100.0, 0.0), 0.5, 0.0);
  std::vector<double> done;
  (void)channel.begin_checkpoint_write(1, "m0", [&] { done.push_back(engine.now()); });
  (void)channel.begin_checkpoint_write(2, "m1", [&] { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 20.0);
  EXPECT_DOUBLE_EQ(done[1], 20.0);
  EXPECT_EQ(channel.peak_concurrent(), 2u);
}

TEST(IoChannel, LateJoinerStretchesTheEarlierTransfer) {
  // A starts at 0 (solo finish would be 10). B joins at 5: A's remaining 50
  // bytes now move at 5 B/s -> A finishes at 15; B's 100 bytes get 5 B/s
  // until 15 (50 bytes) then the full 10 B/s -> B finishes at 20.
  Engine engine;
  IoChannel channel(engine, io_config(10.0, 100.0, 0.0), 0.5, 0.0);
  double a_done = -1.0, b_done = -1.0;
  (void)channel.begin_checkpoint_write(1, "m0", [&] { a_done = engine.now(); });
  engine.schedule_at(5.0, EventPriority::kControl, "start b", [&] {
    (void)channel.begin_checkpoint_write(2, "m1", [&] { b_done = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 15.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST(IoChannel, CooperativeDefersExcessWriters) {
  // max_writers = 1: the second write waits its turn instead of stretching
  // the first, so the writes complete back to back at 10 and 20.
  Engine engine;
  IoChannel channel(engine,
                    io_config(10.0, 100.0, 0.0, IoStrategy::kCooperative, 1), 0.5,
                    0.0);
  double a_done = -1.0, b_done = -1.0;
  (void)channel.begin_checkpoint_write(1, "m0", [&] { a_done = engine.now(); });
  (void)channel.begin_checkpoint_write(2, "m1", [&] { b_done = engine.now(); });
  EXPECT_EQ(channel.active_count(), 1u);
  EXPECT_EQ(channel.waiting_count(), 1u);
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 10.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
  EXPECT_EQ(channel.peak_concurrent(), 1u);
}

TEST(IoChannel, CooperativeNeverDefersRestartReads) {
  // A write holds the only writer slot; a restart read is still admitted
  // immediately and fair-shares with it.
  Engine engine;
  IoChannel channel(engine,
                    io_config(10.0, 100.0, 100.0, IoStrategy::kCooperative, 1), 0.5,
                    0.5);
  double read_done = -1.0;
  (void)channel.begin_checkpoint_write(1, "m0", [] {});
  (void)channel.begin_restart_read(2, "m1", [&] { read_done = engine.now(); });
  EXPECT_EQ(channel.active_count(), 2u);
  EXPECT_EQ(channel.waiting_count(), 0u);
  engine.run();
  EXPECT_DOUBLE_EQ(read_done, 20.0);
}

TEST(IoChannel, CancelReleasesBandwidthAndSlots) {
  // Two concurrent writes; cancelling one at t = 5 lets the survivor run at
  // full bandwidth: 75 bytes left at 10 B/s -> done at 12.5, not 20.
  Engine engine;
  IoChannel channel(engine, io_config(10.0, 100.0, 0.0), 0.5, 0.0);
  double a_done = -1.0;
  bool b_fired = false;
  (void)channel.begin_checkpoint_write(1, "m0", [&] { a_done = engine.now(); });
  const auto b = channel.begin_checkpoint_write(2, "m1", [&] { b_fired = true; });
  engine.schedule_at(5.0, EventPriority::kControl, "cancel b",
                     [&] { EXPECT_TRUE(channel.cancel(b)); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 12.5);
  EXPECT_FALSE(b_fired);
  EXPECT_FALSE(channel.cancel(b));  // already gone
  EXPECT_EQ(channel.writes_completed(), 1u);
}

TEST(IoChannel, CancellingAWriterAdmitsTheNextWaiter) {
  Engine engine;
  IoChannel channel(engine,
                    io_config(10.0, 100.0, 0.0, IoStrategy::kCooperative, 1), 0.5,
                    0.0);
  double b_done = -1.0;
  const auto a = channel.begin_checkpoint_write(1, "m0", [] {});
  (void)channel.begin_checkpoint_write(2, "m1", [&] { b_done = engine.now(); });
  EXPECT_EQ(channel.waiting_count(), 1u);
  engine.schedule_at(4.0, EventPriority::kControl, "cancel a",
                     [&] { EXPECT_TRUE(channel.cancel(a)); });
  engine.run();
  // B is admitted at 4 and writes its 100 bytes solo -> done at 14.
  EXPECT_DOUBLE_EQ(b_done, 14.0);
}

// ---- uncontended path == fixed-cost path ----------------------------------

TEST(IoContention, UncontendedChannelMatchesFixedCostRun) {
  // The ChargesWriteAndRestartCosts scenario from test_recovery, with the
  // channel enabled on a single machine (never concurrent): derived transfer
  // sizes make an uncontended write take exactly C and a read exactly R, so
  // every task record matches the fixed-cost model.
  EetMatrix eet({"T1"}, {"m0"}, {{10.0}});
  SystemConfig system = e2c::sched::make_default_system(std::move(eet));
  system.faults.enabled = true;
  system.faults.mode = FaultMode::kTrace;
  system.faults.trace = {{0, 5.0, 7.0}};
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 3.0;
  system.faults.recovery.checkpoint_cost = 0.5;
  system.faults.recovery.restart_cost = 1.0;
  system.faults.io = io_config(8.0, 0.0, 0.0);  // bytes derive cost x bandwidth
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
  ASSERT_NE(simulation.io_channel(), nullptr);
  EXPECT_EQ(simulation.io_channel()->peak_concurrent(), 1u);
  EXPECT_EQ(simulation.io_channel()->reads_completed(), 1u);
  expect_waste_invariant(simulation);
}

// ---- Daly closed-form validation ------------------------------------------

TEST(IoContention, DalyWasteMatchesClosedFormAcrossMtbfSweep) {
  // One machine, Young/Daly auto-τ, R = 0, channel enabled but structurally
  // uncontended (a single machine writes alone). Daly's first-order waste
  // fraction is C/τ + τ/(2M) = √(2C/M) at τ = √(2CM); the measured
  // (lost + overhead) / machine-seconds must land within 25% of it. Tasks
  // are long (500 s) relative to every τ in the sweep, as the closed form
  // assumes.
  for (const double mtbf : {50.0, 100.0, 200.0}) {
    EetMatrix eet({"T1"}, {"m0"}, {{500.0}});
    SystemConfig system = e2c::sched::make_default_system(std::move(eet));
    system.faults.enabled = true;
    system.faults.mtbf = mtbf;
    system.faults.mttr = 0.5;
    system.faults.seed = 1234;
    system.faults.retry.max_retries = 1000;
    system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
    system.faults.recovery.checkpoint_interval = 0.0;  // Young/Daly
    system.faults.recovery.checkpoint_cost = 0.5;
    system.faults.recovery.restart_cost = 0.0;
    system.faults.io = io_config(16.0, 0.0, 0.0);
    Simulation simulation(system, e2c::sched::make_policy("MECT"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 6; ++i) {
      tasks.push_back(make_task(i, 0, 0.0, 1e12));
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();

    double lost = 0.0, overhead = 0.0, machine_seconds = 0.0;
    const auto& state = simulation.task_state();
    for (std::size_t i = 0; i < state.size(); ++i) {
      lost += state.lost_seconds(i);
      overhead += state.checkpoint_overhead_seconds(i);
      machine_seconds += state.machine_seconds[i];
    }
    ASSERT_GT(machine_seconds, 2000.0);
    const double measured = (lost + overhead) / machine_seconds;
    const double predicted = std::sqrt(2.0 * 0.5 / mtbf);
    EXPECT_NEAR(measured, predicted, 0.25 * predicted)
        << "mtbf=" << mtbf << " measured=" << measured
        << " predicted=" << predicted;
    expect_waste_invariant(simulation);
  }
}

// ---- contention ------------------------------------------------------------

// Three machines, three tasks, synchronized checkpoint cadence, channel sized
// so every simultaneous write saturates it.
SystemConfig contended_system(IoStrategy strategy) {
  EetMatrix eet({"T1"}, {"m0", "m1", "m2"}, {{10.0, 10.0, 10.0}});
  SystemConfig system = e2c::sched::make_default_system(std::move(eet));
  system.faults.enabled = true;
  system.faults.mode = FaultMode::kTrace;
  system.faults.trace = {};  // no crashes: isolate the overhead term
  system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
  system.faults.recovery.checkpoint_interval = 2.0;
  system.faults.recovery.checkpoint_cost = 0.5;
  system.faults.recovery.restart_cost = 0.5;
  system.faults.io = io_config(8.0, 0.0, 0.0, strategy, 1);
  return system;
}

double total_waste(const Simulation& simulation) {
  double waste = 0.0;
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    waste += state.lost_seconds(i) + state.checkpoint_overhead_seconds(i);
  }
  return waste;
}

TEST(IoContention, SelfishWritersStretchEachOther) {
  // All three machines hit their τ = 2 checkpoint together; under selfish
  // fair-sharing each 0.5 s write takes 1.5 s, so the first checkpoint
  // commits at 3.5, not 2.5.
  SystemConfig system = contended_system(IoStrategy::kSelfish);
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9), make_task(1, 0, 0.0, 1e9),
                            make_task(2, 0, 0.0, 1e9)}));
  simulation.run();
  const auto& state = simulation.task_state();
  ASSERT_TRUE(state.has_checkpoint_column());
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.status[i], TaskStatus::kCompleted);
    ASSERT_FALSE(state.checkpoint_times[i].empty());
    EXPECT_NEAR(state.checkpoint_times[i].front(), 3.5, 1e-9);
  }
  ASSERT_NE(simulation.io_channel(), nullptr);
  EXPECT_EQ(simulation.io_channel()->peak_concurrent(), 3u);
  expect_waste_invariant(simulation);
}

TEST(IoContention, CooperativeStrictlyBeatsSelfishAtSaturation) {
  // Selfish: each synchronized round costs 3 x 1.5 = 4.5 machine-seconds of
  // overhead. Cooperative (one writer at a time): 0.5 + 1.0 + 1.5 = 3.0 for
  // the first round, and the stagger decorrelates later rounds further.
  SystemConfig selfish = contended_system(IoStrategy::kSelfish);
  Simulation selfish_run(selfish, e2c::sched::make_policy("MECT"));
  selfish_run.load(Workload({make_task(0, 0, 0.0, 1e9), make_task(1, 0, 0.0, 1e9),
                             make_task(2, 0, 0.0, 1e9)}));
  selfish_run.run();

  SystemConfig cooperative = contended_system(IoStrategy::kCooperative);
  Simulation cooperative_run(cooperative, e2c::sched::make_policy("MECT"));
  cooperative_run.load(Workload({make_task(0, 0, 0.0, 1e9),
                                 make_task(1, 0, 0.0, 1e9),
                                 make_task(2, 0, 0.0, 1e9)}));
  cooperative_run.run();

  expect_waste_invariant(selfish_run);
  expect_waste_invariant(cooperative_run);
  EXPECT_LT(total_waste(cooperative_run), total_waste(selfish_run));
  EXPECT_EQ(cooperative_run.io_channel()->peak_concurrent(), 1u);
}

TEST(IoContention, WasteInvariantHoldsForThreeContendingTenants) {
  // Three tenants' merged workload on two machines, stochastic crashes, a
  // skinny shared channel: transfers stretch, defer, and get cancelled by
  // mid-write crashes — the per-task and per-tenant decompositions must
  // still balance exactly.
  for (const IoStrategy strategy : {IoStrategy::kSelfish, IoStrategy::kCooperative}) {
    EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {5.0, 2.0}});
    SystemConfig system = e2c::sched::make_default_system(std::move(eet));
    system.faults.enabled = true;
    system.faults.mtbf = 25.0;
    system.faults.mttr = 2.0;
    system.faults.seed = 77;
    system.faults.recovery.strategy = RecoveryStrategy::kCheckpoint;
    system.faults.recovery.checkpoint_interval = 1.5;
    system.faults.recovery.checkpoint_cost = 0.5;
    system.faults.recovery.restart_cost = 0.5;
    system.faults.io = io_config(4.0, 0.0, 0.0, strategy, 1);

    std::vector<e2c::exp::TenantSpec> tenants;
    for (std::size_t i = 0; i < 3; ++i) {
      e2c::exp::TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.rho = 0.25;
      spec.duration = 60.0;
      spec.seed = 100 + i;
      tenants.push_back(spec);
    }
    const Workload merged = e2c::exp::make_multi_tenant_workload(system, tenants);
    ASSERT_GT(merged.size(), 10u);

    Simulation simulation(system, e2c::sched::make_policy("MECT"));
    simulation.load(merged);
    simulation.set_tenant_names(e2c::exp::tenant_names(tenants));
    simulation.run();

    expect_waste_invariant(simulation);
    const auto outcomes = e2c::exp::tenant_outcomes(simulation);
    ASSERT_EQ(outcomes.size(), 3u);
    double machine_seconds = 0.0;
    for (const auto& outcome : outcomes) {
      EXPECT_NEAR(outcome.useful_seconds + outcome.lost_seconds +
                      outcome.checkpoint_overhead_seconds,
                  outcome.machine_seconds, 1e-9)
          << outcome.name;
      machine_seconds += outcome.machine_seconds;
    }
    double task_machine_seconds = 0.0;
    const auto& state = simulation.task_state();
    for (std::size_t i = 0; i < state.size(); ++i) {
      task_machine_seconds += state.machine_seconds[i];
    }
    // The tenant decomposition is a partition of the run.
    EXPECT_NEAR(machine_seconds, task_machine_seconds, 1e-9);
  }
}

}  // namespace
