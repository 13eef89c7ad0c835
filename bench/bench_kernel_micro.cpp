// google-benchmark microbenchmarks for the simulator substrate: event-queue
// throughput, full engine event dispatch, policy decision latency and
// end-to-end simulation rate. These back the paper's usability claim that
// scenarios run "within a short time ... at no cost" — a classroom scenario
// must simulate in milliseconds.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "support/owned_queue.hpp"
#include "support/schedule.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace e2c;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> times(count);
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  for (auto _ : state) {
    core::EventQueue queue;
    for (double t : times) {
      (void)queue.schedule(t, core::EventPriority::kArrival, "", {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_EngineDispatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Engine engine;
    for (std::size_t i = 0; i < count; ++i) {
      (void)engine.schedule_at(static_cast<double>(i), core::EventPriority::kControl, "",
                               [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.processed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EngineDispatch)->Arg(1000)->Arg(10000);

void BM_PolicyDecision(benchmark::State& state, const char* policy_name) {
  auto system = exp::heterogeneous_classroom();
  const auto policy = sched::make_policy(policy_name);
  // A loaded batch queue of 32 tasks against 4 machines.
  std::vector<workload::TaskDef> tasks;
  for (std::uint64_t i = 0; i < 32; ++i) {
    workload::TaskDef task;
    task.id = i;
    task.type = static_cast<std::uint32_t>(i % system.eet.task_type_count());
    task.arrival = 0.0;
    task.deadline = 60.0 + static_cast<double>(i);
    tasks.push_back(task);
  }
  const test::OwnedQueue queue(system.eet, std::move(tasks));
  std::vector<sched::MachineView> machines;
  for (std::size_t m = 0; m < 4; ++m) {
    machines.push_back({m, m, 0.0, 64, 10.0, 100.0});
  }
  for (auto _ : state) {
    sched::SchedulingContext context(0.0, system.eet, machines, queue.index(), {});
    benchmark::DoNotOptimize(test::schedule(*policy, context));
  }
}
BENCHMARK_CAPTURE(BM_PolicyDecision, fcfs, "FCFS");
BENCHMARK_CAPTURE(BM_PolicyDecision, mect, "MECT");
BENCHMARK_CAPTURE(BM_PolicyDecision, min_min, "MM");
BENCHMARK_CAPTURE(BM_PolicyDecision, felare, "FELARE");

void BM_FullSimulation(benchmark::State& state, const char* policy_name) {
  auto system = exp::heterogeneous_classroom();
  const auto machine_types = exp::machine_types_of(system);
  const auto generator = workload::config_for_intensity(
      system.eet, machine_types, workload::Intensity::kMedium,
      static_cast<double>(state.range(0)), 7);
  const auto trace = workload::generate_workload(system.eet, generator);
  for (auto _ : state) {
    sched::Simulation simulation(system, sched::make_policy(policy_name));
    simulation.load(trace);
    simulation.run();
    benchmark::DoNotOptimize(simulation.counters().completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.SetLabel(std::to_string(trace.size()) + " tasks");
}
BENCHMARK_CAPTURE(BM_FullSimulation, mect, "MECT")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_FullSimulation, min_min, "MM")->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
