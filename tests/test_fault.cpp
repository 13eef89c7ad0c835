// Tests for the fault-injection subsystem: the fault model itself
// (fault/fault_model.hpp), the Failed machine state, and the simulation's
// abort/retry/requeue pipeline.
#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "machines/machine.hpp"
#include "net/comm_model.hpp"
#include "reports/report.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "support/event_trace.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

using e2c::InputError;
using e2c::core::Engine;
using e2c::fault::FaultConfig;
using e2c::fault::FaultInjector;
using e2c::fault::FaultMode;
using e2c::fault::FaultTraceEntry;
using e2c::fault::RetryPolicy;
using e2c::hetero::EetMatrix;
using e2c::hetero::MachineTypeSpec;
using e2c::machines::Machine;
using e2c::machines::MachineState;
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

SystemConfig two_machine_system(std::size_t queue_capacity = 2) {
  EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {5.0, 2.0}});
  return e2c::sched::make_default_system(std::move(eet), queue_capacity);
}

FaultConfig trace_faults(std::vector<FaultTraceEntry> entries) {
  FaultConfig faults;
  faults.enabled = true;
  faults.mode = FaultMode::kTrace;
  faults.trace = std::move(entries);
  return faults;
}

// ---- machine state machine ------------------------------------------------

TEST(MachineFailure, FailAbortsRunningAndFlushesQueue) {
  Engine engine;
  Machine machine(engine, 0, "m0", 0, MachineTypeSpec{"test", 10.0, 110.0}, 0);
  e2c::workload::TaskStateSoA state;
  state.adopt({make_task(0, 0, 0.0, 1e9), make_task(1, 0, 0.0, 1e9)});
  machine.set_task_state(&state);
  machine.enqueue(0, 10.0);
  machine.enqueue(1, 10.0);

  std::vector<std::size_t> evicted;
  engine.schedule_at(3.0, e2c::core::EventPriority::kControl, "fail",
                     [&] { evicted = machine.fail(engine.now()); });
  engine.run();

  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], 0u);  // running task first
  EXPECT_EQ(evicted[1], 1u);  // then queue order
  EXPECT_EQ(machine.state(), MachineState::kFailed);
  EXPECT_TRUE(machine.failed());
  EXPECT_FALSE(machine.online());
  EXPECT_FALSE(machine.busy());
  EXPECT_EQ(machine.queue_length(), 0u);
  // 3 s of partial execution are charged to busy time.
  EXPECT_DOUBLE_EQ(machine.finalize_stats(3.0).busy_seconds, 3.0);
  EXPECT_EQ(machine.finalize_stats(3.0).tasks_aborted, 2u);
  EXPECT_EQ(machine.finalize_stats(3.0).failures, 1u);
}

TEST(MachineFailure, SetOnlineIsNoOpWhileFailed) {
  Engine engine;
  Machine machine(engine, 0, "m0", 0, MachineTypeSpec{"test", 10.0, 110.0}, 0);
  (void)machine.fail(0.0);
  machine.set_online(true, 1.0);
  EXPECT_TRUE(machine.failed());
  machine.repair(2.0);
  EXPECT_TRUE(machine.online());
  EXPECT_TRUE(machine.has_queue_space());
}

TEST(MachineFailure, MisuseErrorsPinExactText) {
  Engine engine;
  Machine machine(engine, 0, "m0", 0, MachineTypeSpec{"test", 10.0, 110.0}, 0);
  const auto error_of = [](auto&& action) -> std::string {
    try {
      action();
    } catch (const e2c::InvariantError& error) {
      return error.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of([&] { machine.repair(1.0); }),
            "Machine::repair: machine 'm0' is not failed");
  (void)machine.fail(2.0);
  EXPECT_EQ(error_of([&] { (void)machine.fail(3.0); }),
            "Machine::fail: machine 'm0' is not online");
}

TEST(MachineFailure, AvailabilityReflectsDowntime) {
  Engine engine;
  Machine machine(engine, 0, "m0", 0, MachineTypeSpec{"test", 10.0, 110.0}, 0);
  (void)machine.fail(2.0);
  machine.repair(4.0);
  EXPECT_DOUBLE_EQ(machine.failed_seconds(10.0), 2.0);
  EXPECT_DOUBLE_EQ(machine.availability(10.0), 0.8);
  // An open failure span is clamped to the horizon.
  (void)machine.fail(8.0);
  EXPECT_DOUBLE_EQ(machine.failed_seconds(10.0), 4.0);
  EXPECT_DOUBLE_EQ(machine.availability(10.0), 0.6);
  EXPECT_EQ(machine.failure_spans().size(), 2u);
}

// ---- trace loading --------------------------------------------------------

TEST(FaultTrace, ParsesCsv) {
  const auto trace = e2c::fault::fault_trace_from_csv_text(
      "machine,fail_time,repair_time\n1,10.5,12\n0,3,4.5\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].machine, 1u);
  EXPECT_DOUBLE_EQ(trace[0].fail_time, 10.5);
  EXPECT_DOUBLE_EQ(trace[1].repair_time, 4.5);
}

TEST(FaultTrace, ErrorsCarryLineNumbers) {
  try {
    (void)e2c::fault::fault_trace_from_csv_text(
        "machine,fail_time,repair_time\n0,1,2\nx,3,4\n");
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(FaultTrace, RowErrorsPinExactText) {
  const auto error_of = [](const std::string& rows) -> std::string {
    try {
      (void)e2c::fault::fault_trace_from_csv_text("machine,fail_time,repair_time\n0,1,2\n" +
                                                  rows);
    } catch (const InputError& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(error_of("1,3\n"), "fault trace CSV: too few fields at line 3");
  EXPECT_EQ(error_of("-1,3,4\n"), "fault trace CSV: bad machine '-1' at line 3");
  EXPECT_EQ(error_of("1,t,4\n"), "fault trace CSV: bad fail_time 't' at line 3");
  EXPECT_EQ(error_of("1,3,later\n"), "fault trace CSV: bad repair_time 'later' at line 3");
  EXPECT_EQ(error_of("1,-3,4\n"), "fault trace CSV: fail_time must be >= 0 at line 3");
  EXPECT_EQ(error_of("1,5,4\n"),
            "fault trace CSV: repair_time must be after fail_time at line 3");
}

TEST(FaultTrace, RejectsRepairBeforeFail) {
  EXPECT_THROW((void)e2c::fault::fault_trace_from_csv_text(
                   "machine,fail_time,repair_time\n0,5,5\n"),
               InputError);
}

TEST(FaultTrace, SimulationRejectsOutOfRangeMachine) {
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{7, 1.0, 2.0}});
  EXPECT_THROW(Simulation(system, e2c::sched::make_policy("MECT")), InputError);
}

// ---- injector -------------------------------------------------------------

TEST(FaultInjector, StochasticIsDeterministicUnderSeed) {
  FaultConfig config;
  config.enabled = true;
  config.mtbf = 50.0;
  config.mttr = 5.0;
  config.seed = 7;
  FaultInjector a(config, 3);
  FaultInjector b(config, 3);
  for (std::size_t m = 0; m < 3; ++m) {
    double from = 0.0;
    for (int i = 0; i < 10; ++i) {
      const auto sa = a.next(m, from);
      const auto sb = b.next(m, from);
      ASSERT_TRUE(sa && sb);
      EXPECT_DOUBLE_EQ(sa->fail_time, sb->fail_time);
      EXPECT_DOUBLE_EQ(sa->repair_time, sb->repair_time);
      EXPECT_GT(sa->fail_time, from);
      EXPECT_GT(sa->repair_time, sa->fail_time);
      from = sa->repair_time;
    }
  }
}

TEST(FaultInjector, MachinesDrawIndependentStreams) {
  FaultConfig config;
  config.enabled = true;
  config.mtbf = 50.0;
  config.mttr = 5.0;
  FaultInjector injector(config, 2);
  const auto s0 = injector.next(0, 0.0);
  const auto s1 = injector.next(1, 0.0);
  ASSERT_TRUE(s0 && s1);
  EXPECT_NE(s0->fail_time, s1->fail_time);
}

TEST(FaultInjector, TraceModeExhausts) {
  FaultConfig config = trace_faults({{0, 1.0, 2.0}, {0, 5.0, 6.0}});
  FaultInjector injector(config, 1);
  const auto first = injector.next(0, 0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->fail_time, 1.0);
  const auto second = injector.next(0, 2.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->fail_time, 5.0);
  EXPECT_FALSE(injector.next(0, 6.0).has_value());
}

// ---- retry policy ---------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  RetryPolicy retry;
  retry.backoff_base = 1.5;
  retry.backoff_factor = 2.0;
  EXPECT_DOUBLE_EQ(retry.delay(1), 1.5);
  EXPECT_DOUBLE_EQ(retry.delay(2), 3.0);
  EXPECT_DOUBLE_EQ(retry.delay(3), 6.0);
}

TEST(RetryPolicyTest, BackoffIsCappedAtMaxBackoff) {
  RetryPolicy retry;
  retry.backoff_base = 1.0;
  retry.backoff_factor = 2.0;
  retry.max_backoff = 60.0;
  // 2^9 = 512 > 60; the cap kicks in.
  EXPECT_DOUBLE_EQ(retry.delay(10), 60.0);
  // Far past where the uncapped exponential overflows to +inf.
  EXPECT_DOUBLE_EQ(retry.delay(5000), 60.0);
  EXPECT_TRUE(std::isfinite(retry.delay(5000)));
  // Below the cap the exponential is untouched.
  EXPECT_DOUBLE_EQ(retry.delay(3), 4.0);
}

// ---- config validation ----------------------------------------------------

TEST(FaultConfigValidation, RejectsBadValues) {
  FaultConfig config;
  config.enabled = true;
  config.mtbf = -1.0;
  EXPECT_THROW(config.validate(2), InputError);
  config.mtbf = 100.0;
  config.retry.max_backoff = 0.0;
  EXPECT_THROW(config.validate(2), InputError);
}

TEST(FaultConfigValidation, RejectsBadRecoveryValues) {
  FaultConfig config;
  config.enabled = true;
  config.recovery.strategy = e2c::fault::RecoveryStrategy::kCheckpoint;
  config.recovery.checkpoint_cost = -0.5;
  EXPECT_THROW(config.validate(2), InputError);
  config.recovery.checkpoint_cost = 0.5;
  config.recovery.restart_cost = -1.0;
  EXPECT_THROW(config.validate(2), InputError);
  config.recovery.restart_cost = 0.5;
  config.validate(2);  // sane checkpoint config passes

  config.recovery.strategy = e2c::fault::RecoveryStrategy::kReplicate;
  config.recovery.replicas = 0;
  EXPECT_THROW(config.validate(2), InputError);
  config.recovery.replicas = 3;  // only 2 machines -> cannot be distinct
  EXPECT_THROW(config.validate(2), InputError);
  config.recovery.replicas = 2;
  config.validate(2);
}

TEST(FaultConfigValidation, AutoCheckpointIntervalNeedsStochasticMtbf) {
  FaultConfig config = trace_faults({{0, 1.0, 2.0}});
  config.recovery.strategy = e2c::fault::RecoveryStrategy::kCheckpoint;
  config.recovery.checkpoint_interval = 0.0;  // auto τ needs an MTBF
  EXPECT_THROW(config.validate(2), InputError);
  config.recovery.checkpoint_interval = 2.0;  // fixed τ is fine with a trace
  config.validate(2);
}

TEST(FaultConfigValidation, TraceRejectsNegativeFailTime) {
  FaultConfig config = trace_faults({{0, -1.0, 2.0}});
  try {
    config.validate(2);
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("fail_time must be >= 0"), std::string::npos) << what;
    EXPECT_NE(what.find("trace entry #0"), std::string::npos) << what;
  }
}

TEST(FaultConfigValidation, TraceRejectsRepairAtOrBeforeFail) {
  EXPECT_THROW(trace_faults({{0, 5.0, 5.0}}).validate(2), InputError);
  EXPECT_THROW(trace_faults({{0, 5.0, 4.0}}).validate(2), InputError);
  trace_faults({{0, 5.0, 5.5}}).validate(2);
}

TEST(FaultConfigValidation, TraceRejectsOverlappingSpansOnOneMachine) {
  // Machine 0's second span starts while the first is still down; the
  // injector would silently skip it, so validate rejects the trace.
  FaultConfig config = trace_faults({{0, 1.0, 10.0}, {1, 2.0, 3.0}, {0, 4.0, 12.0}});
  try {
    config.validate(2);
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("overlapping spans on machine 0"), std::string::npos) << what;
    EXPECT_NE(what.find("trace entry #2"), std::string::npos) << what;
  }
}

TEST(FaultConfigValidation, TraceAllowsBackToBackSpans) {
  // fail == previous repair is fine: the machine crashes again the instant
  // it comes back. Spans on different machines never conflict.
  trace_faults({{0, 1.0, 2.0}, {0, 2.0, 3.0}, {1, 1.5, 2.5}}).validate(2);
}

TEST(FaultConfigValidation, TraceErrorsCarryCsvLineLocators) {
  // Entries loaded from CSV report the defining file line, not an index.
  FaultConfig config = trace_faults(e2c::fault::fault_trace_from_csv_text(
      "machine,fail_time,repair_time\n0,1,10\n0,4,12\n"));
  try {
    config.validate(2);
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(FaultConfigValidation, IoChannelNeedsCheckpointStrategy) {
  FaultConfig config;
  config.enabled = true;
  config.io.enabled = true;
  config.io.bandwidth = 100.0;
  EXPECT_THROW(config.validate(2), InputError);  // strategy is resubmit
  config.recovery.strategy = e2c::fault::RecoveryStrategy::kCheckpoint;
  config.validate(2);
  config.io.bandwidth = 0.0;
  EXPECT_THROW(config.validate(2), InputError);
  config.io.bandwidth = 100.0;
  // Zero-cost checkpoints with no explicit byte size would make every write
  // a zero-byte transfer.
  config.recovery.checkpoint_cost = 0.0;
  config.recovery.checkpoint_interval = 5.0;
  EXPECT_THROW(config.validate(2), InputError);
  config.io.checkpoint_bytes = 64.0;
  config.validate(2);
  config.io.strategy = e2c::fault::IoStrategy::kCooperative;
  config.io.max_writers = 0;
  EXPECT_THROW(config.validate(2), InputError);
}

TEST(IoStrategyParse, NamesRoundTripAndTyposGetSuggestions) {
  using e2c::fault::IoStrategy;
  using e2c::fault::parse_io_strategy;
  EXPECT_EQ(parse_io_strategy("selfish"), IoStrategy::kSelfish);
  EXPECT_EQ(parse_io_strategy("COOPERATIVE"), IoStrategy::kCooperative);
  EXPECT_STREQ(e2c::fault::io_strategy_name(IoStrategy::kSelfish), "selfish");
  EXPECT_STREQ(e2c::fault::io_strategy_name(IoStrategy::kCooperative), "cooperative");
  try {
    (void)parse_io_strategy("cooperativ");
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("did you mean 'cooperative'"), std::string::npos) << what;
    EXPECT_NE(what.find("selfish | cooperative"), std::string::npos) << what;
  }
}

TEST(RecoveryStrategyParse, NamesRoundTripAndTyposGetSuggestions) {
  using e2c::fault::parse_recovery_strategy;
  using e2c::fault::RecoveryStrategy;
  EXPECT_EQ(parse_recovery_strategy("checkpoint"), RecoveryStrategy::kCheckpoint);
  EXPECT_EQ(parse_recovery_strategy("REPLICATE"), RecoveryStrategy::kReplicate);
  try {
    (void)parse_recovery_strategy("checkpont");
    FAIL() << "expected InputError";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("did you mean 'checkpoint'"), std::string::npos) << what;
    EXPECT_NE(what.find("resubmit"), std::string::npos) << what;
  }
}

TEST(RecoveryStrategyParse, YoungDalyInterval) {
  // √(2·C·MTBF): C = 2, MTBF = 100 -> √400 = 20.
  EXPECT_DOUBLE_EQ(e2c::fault::young_daly_interval(2.0, 100.0), 20.0);
  EXPECT_THROW((void)e2c::fault::young_daly_interval(0.0, 100.0), InputError);
  EXPECT_THROW((void)e2c::fault::young_daly_interval(1.0, 0.0), InputError);
}

// ---- simulation integration ----------------------------------------------

TEST(FaultSimulation, AbortedTaskRetriesAndCompletes) {
  // T1 starts on m0 at 0, m0 crashes at 2, repairs at 100. The task backs
  // off 1 s and remaps (to m1, the only online machine) and completes.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 2.0, 100.0}});
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.retries(0), 1u);
  EXPECT_EQ(state.machine[0], 1u);
  // crash at 2 + backoff 1 -> requeue at 3 -> 6 s (T1 on m1) -> done at 9.
  EXPECT_DOUBLE_EQ(state.completion_time(0), 9.0);
  EXPECT_EQ(simulation.counters().requeued, 1u);
  EXPECT_EQ(simulation.counters().failed, 0u);
  EXPECT_EQ(simulation.counters().completed, 1u);
}

TEST(FaultSimulation, RetryExhaustionMarksFailed) {
  SystemConfig system = two_machine_system();
  // Both machines crash whenever the task lands; no retries allowed.
  system.faults = trace_faults({{0, 2.0, 1000.0}});
  system.faults.retry.max_retries = 0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kFailed);
  EXPECT_EQ(state.retries(0), 0u);
  EXPECT_EQ(state.machine[0], e2c::workload::kNoMachine);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 2.0);
  EXPECT_EQ(simulation.counters().failed, 1u);
  EXPECT_EQ(simulation.counters().requeued, 0u);
  EXPECT_TRUE(simulation.finished());
  // The missed panel includes fault-failed tasks.
  ASSERT_EQ(simulation.missed_tasks().size(), 1u);
  EXPECT_EQ(state.id(simulation.missed_tasks()[0]), 0u);
}

TEST(FaultSimulation, RequeueOrderIsRunningFirstThenQueue) {
  // Three T1 tasks pile onto m0 (MECT prefers it: eet 4 vs 6). m0 crashes at
  // 1 with both machines' trace keeping m1 alive; after backoff all three
  // re-enter the batch queue in eviction order: running task 0, then queued
  // 1, 2 — and are remapped in that order.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 1.0, 1000.0}});
  Simulation simulation(system, e2c::sched::make_policy("FCFS"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9), make_task(1, 0, 0.0, 1e9),
                            make_task(2, 0, 0.0, 1e9)}));
  simulation.run();
  ASSERT_EQ(simulation.counters().completed, 3u);
  std::vector<double> starts;
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.status[i], TaskStatus::kCompleted);
    starts.push_back(state.start_time[i]);
  }
  // Task 1 rode out the crash on m1 (started at 0); the evicted pair lines
  // up behind it in eviction order: running task 0, then queued task 2.
  EXPECT_DOUBLE_EQ(starts[1], 0.0);
  EXPECT_DOUBLE_EQ(starts[0], 6.0);
  EXPECT_DOUBLE_EQ(starts[2], 12.0);
  EXPECT_EQ(state.retries(0), 1u);
  EXPECT_EQ(state.retries(2), 1u);
}

TEST(FaultSimulation, DeadlineDuringRetryWaitFails) {
  // Crash at 2; backoff 10 s; deadline at 5 fires while the task waits.
  SystemConfig system = two_machine_system();
  system.faults = trace_faults({{0, 2.0, 1000.0}});
  system.faults.retry.backoff_base = 10.0;
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 5.0)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kFailed);
  EXPECT_DOUBLE_EQ(state.missed_time(0), 5.0);
  EXPECT_EQ(simulation.counters().failed, 1u);
  EXPECT_EQ(simulation.counters().requeued, 1u);
  EXPECT_TRUE(simulation.finished());
}

TEST(FaultSimulation, InFlightTransferToFailedMachineIsRefunded) {
  // With a comm model every mapping transfers first. m0 crashes mid-transfer;
  // the payload is cancelled, the reservation refunded, and the task retries
  // to completion elsewhere.
  SystemConfig system = two_machine_system();
  system.comm = e2c::net::CommModel::uniform(
      system.eet.task_type_count(), system.eet.machine_type_count(), 100.0,
      e2c::net::LinkSpec{0.0, 100.0});  // 1 s transfer
  system.faults = trace_faults({{0, 0.5, 1000.0}});
  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(Workload({make_task(0, 0, 0.0, 1e9)}));
  simulation.run();
  const auto& state = simulation.task_state();
  EXPECT_EQ(state.status[0], TaskStatus::kCompleted);
  EXPECT_EQ(state.retries(0), 1u);
  EXPECT_EQ(state.machine[0], 1u);
  EXPECT_EQ(simulation.in_flight_count(0), 0u);
  EXPECT_EQ(simulation.in_flight_count(1), 0u);
}

TEST(FaultSimulation, CrashEvictsOnlyItsOwnTransfersInIdOrder) {
  // Tasks 5 then 4 reserve m0 (T1 runs 1 s there, 10 s on m1) and task 3
  // reserves m1, all mid-transfer when m0 crashes at 0.5. The crash refunds
  // m0's two reservations and retries them by ascending id even though they
  // were reserved in descending order; m1's transfer rides it out.
  EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{1.0, 10.0}, {10.0, 1.0}});
  SystemConfig system = e2c::sched::make_default_system(std::move(eet));
  system.comm = e2c::net::CommModel::uniform(2, 2, 200.0,
                                             e2c::net::LinkSpec{0.0, 100.0});  // 2 s
  system.faults = trace_faults({{0, 0.5, 1000.0}});
  Simulation simulation(system, e2c::sched::make_policy("MECT"));

  e2c::test::EventTrace trace;
  simulation.load(Workload({make_task(5, 0, 0.0, 1e9), make_task(4, 0, 0.1, 1e9),
                            make_task(3, 1, 0.2, 1e9)}));
  const auto& state = simulation.task_state();
  ASSERT_EQ(state.id(0), 5u);
  ASSERT_EQ(state.id(1), 4u);
  ASSERT_EQ(state.id(2), 3u);

  trace.record_until(simulation.engine(), 0.4);
  EXPECT_EQ(simulation.in_flight_count(0), 2u);
  EXPECT_EQ(simulation.in_flight_count(1), 1u);
  EXPECT_EQ(state.machine[0], 0u);
  EXPECT_EQ(state.machine[1], 0u);

  trace.record_until(simulation.engine(), 0.6);
  EXPECT_EQ(simulation.in_flight_count(0), 0u);
  EXPECT_EQ(simulation.in_flight_count(1), 1u);
  EXPECT_EQ(state.status[0], TaskStatus::kRetryWait);
  EXPECT_EQ(state.status[1], TaskStatus::kRetryWait);
  EXPECT_EQ(state.status[2], TaskStatus::kTransferring);
  EXPECT_EQ(state.machine[2], 1u);

  trace.record(simulation.engine());
  std::vector<std::string> retries;
  for (const auto& record : trace.records()) {
    if (record.label.rfind("retry task=", 0) == 0) retries.push_back(record.label);
  }
  EXPECT_EQ(retries, (std::vector<std::string>{"retry task=4", "retry task=5"}));
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.status[i], TaskStatus::kCompleted) << "task " << state.id(i);
  }
  EXPECT_EQ(state.retries(0), 1u);
  EXPECT_EQ(state.retries(1), 1u);
  EXPECT_EQ(state.retries(2), 0u);
  EXPECT_DOUBLE_EQ(state.start_time[2], 2.2);  // transfer 0.2 -> 2.2, undisturbed
  EXPECT_EQ(simulation.in_flight_count(0), 0u);
  EXPECT_EQ(simulation.in_flight_count(1), 0u);
}

TEST(FaultSimulation, CountersAddUpWithFaults) {
  SystemConfig system = two_machine_system(1);
  system.faults.enabled = true;
  system.faults.mtbf = 20.0;
  system.faults.mttr = 4.0;
  system.faults.seed = 11;
  Simulation simulation(system, e2c::sched::make_policy("MM"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 30; ++i) {
    tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.4,
                              static_cast<double>(i) * 0.4 + 15.0));
  }
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  const auto& counters = simulation.counters();
  EXPECT_EQ(counters.completed + counters.cancelled + counters.dropped + counters.failed,
            counters.total);
  EXPECT_TRUE(simulation.finished());
}

TEST(FaultSimulation, StochasticRunIsBitIdenticalUnderSeed) {
  const auto run_once = [] {
    SystemConfig system = two_machine_system();
    system.faults.enabled = true;
    system.faults.mtbf = 15.0;
    system.faults.mttr = 3.0;
    system.faults.seed = 99;
    Simulation simulation(system, e2c::sched::make_policy("MECT"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 40; ++i) {
      tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.5,
                                static_cast<double>(i) * 0.5 + 25.0));
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();
    return e2c::reports::task_report(simulation);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultSimulation, EmptyTraceMatchesDisabledFaults) {
  // An enabled injector whose trace holds no spans must be indistinguishable
  // from faults switched off entirely.
  const auto run_once = [](const FaultConfig& faults) {
    SystemConfig system = two_machine_system();
    system.faults = faults;
    Simulation simulation(system, e2c::sched::make_policy("MM"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 20; ++i) {
      tasks.push_back(make_task(i, i % 2, static_cast<double>(i) * 0.7,
                                static_cast<double>(i) * 0.7 + 12.0));
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();
    return e2c::reports::task_report(simulation);
  };
  const FaultConfig disabled;
  const FaultConfig empty_trace = trace_faults({});
  EXPECT_EQ(run_once(disabled), run_once(empty_trace));
  const auto rows = run_once(empty_trace);
  EXPECT_GT(rows.size(), 1u);
}

}  // namespace
