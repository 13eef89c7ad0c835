// Scheduler hot-path benchmark: batch-mapper throughput, fast vs reference.
//
// Part 1 drives each mapper's schedule_into() on synthetic SchedulingContexts
// at batch-queue depths 100 / 1k / 10k for every batch mapper that has a
// full-rescan reference (MM, MMU, MSD, ELARE, FELARE; the references live in
// tests/support), timing whole scheduler invocations and the mapping rounds
// inside them. Before timing, each (policy, depth) cell asserts that the
// fast and reference mappers emit the identical assignment sequence — a
// benchmark of two implementations that diverge would be meaningless.
//
// Part 2 runs full simulations (MM and ELARE, both implementations) at
// overload so the end-to-end events/s impact of the mapper rewrite is
// visible next to BENCH_core_hotpath.json's numbers.
//
// Writes BENCH_sched_hotpath.json; CI compares the fast/reference speedup
// ratios (machine-independent) against the committed baseline.
//
//   bench_sched_hotpath [--depths 100,1000,10000] [--out FILE.json]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "hetero/eet_matrix.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "support/owned_queue.hpp"
#include "support/reference_mappers.hpp"
#include "support/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::sched::Assignment;
using e2c::sched::MachineView;
using e2c::sched::Policy;
using e2c::sched::SchedulingContext;
using e2c::test::schedule;

constexpr std::size_t kMachineCount = 12;
constexpr std::size_t kSlotsPerMachine = 4;

/// A reusable scheduling scenario: schedule() mutates its context (machine
/// projections), so every invocation gets a fresh context stamped from this
/// template. The batch queue is built once, outside the timed loops; a
/// stamp copies only the machine views and on-time rates, identically for
/// both implementations.
struct BenchScenario {
  e2c::hetero::EetMatrix eet;
  std::vector<MachineView> machines;
  std::unique_ptr<const e2c::test::OwnedQueue> queue;
  std::vector<double> ontime_rates;

  [[nodiscard]] SchedulingContext make_context() const {
    return SchedulingContext(0.0, eet, machines, queue->index(), ontime_rates);
  }
};

BenchScenario make_scenario(std::size_t depth) {
  e2c::util::Rng rng(0x5EDBEEF0 + depth);

  // Inconsistent heterogeneity (the paper's GPU/FPGA/ASIC regime): 10 task
  // types x 6 machine types, cells in roughly [2, 32] seconds.
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  for (int t = 0; t < 10; ++t) task_names.push_back("T" + std::to_string(t));
  for (int m = 0; m < 6; ++m) machine_names.push_back("M" + std::to_string(m));
  BenchScenario scenario{
      e2c::hetero::EetMatrix::random(task_names, machine_names, /*base=*/2.0,
                                     /*task_range=*/4.0, /*machine_range=*/4.0,
                                     /*inconsistent=*/true, rng),
      {},
      {},
      {}};

  // Bounded machine queues keep the rounds per invocation bounded (at most
  // machines x slots commits), so one invocation's cost scales with depth —
  // the quantity under test — not with how much work fits on the fleet.
  for (std::size_t j = 0; j < kMachineCount; ++j) {
    MachineView view;
    view.id = j;
    view.type = j % scenario.eet.machine_type_count();
    view.ready_time = rng.uniform(0.0, 20.0);
    view.free_slots = kSlotsPerMachine;
    view.idle_watts = 10.0;
    view.busy_watts = rng.uniform(60.0, 180.0);
    scenario.machines.push_back(view);
  }

  // Half the deadlines are tight enough that commits push them infeasible
  // mid-invocation — the deferral path a deep queue at overload exercises.
  std::vector<e2c::workload::TaskDef> tasks;
  for (std::size_t i = 0; i < depth; ++i) {
    e2c::workload::TaskDef task;
    task.id = i + 1;
    task.type = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(scenario.eet.task_type_count()) - 1));
    task.arrival = static_cast<double>(i) * 0.01;
    task.deadline = rng.bernoulli(0.5) ? rng.uniform(20.0, 80.0) : 1e9;
    tasks.push_back(task);
  }
  scenario.queue = std::make_unique<const e2c::test::OwnedQueue>(scenario.eet, std::move(tasks));

  for (std::size_t t = 0; t < scenario.eet.task_type_count(); ++t) {
    scenario.ontime_rates.push_back(rng.uniform(0.3, 1.0));
  }
  return scenario;
}

/// One side of the comparison: the production mapper from the registry, or
/// its full-rescan reference.
struct Impl {
  const char* name;
  std::unique_ptr<Policy> (*make)(const std::string& policy);
};
constexpr Impl kFast{"fast", &e2c::sched::make_policy};
constexpr Impl kReference{"reference", &e2c::test::make_reference_policy};

struct ScheduleRow {
  std::string policy;
  std::string impl;
  std::size_t depth = 0;
  std::uint64_t invocations = 0;
  std::uint64_t rounds = 0;  // mapping rounds = assignments + the final scan
  std::uint64_t assignments = 0;
  double seconds = 0.0;
  double invocations_per_sec = 0.0;
  double rounds_per_sec = 0.0;
};

ScheduleRow time_schedule(const std::string& name, const Impl& impl,
                          const BenchScenario& scenario, std::size_t depth) {
  ScheduleRow row;
  row.policy = name;
  row.impl = impl.name;
  row.depth = depth;

  const auto policy = impl.make(name);
  {  // warm-up: fault in scratch allocations outside the timed region
    SchedulingContext context = scenario.make_context();
    (void)schedule(*policy, context);
  }

  constexpr double kTargetSeconds = 0.25;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < kTargetSeconds) {
    SchedulingContext context = scenario.make_context();
    const std::vector<Assignment> assignments = schedule(*policy, context);
    ++row.invocations;
    row.assignments += assignments.size();
    row.rounds += assignments.size() + 1;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
  }
  row.seconds = elapsed;
  row.invocations_per_sec = static_cast<double>(row.invocations) / elapsed;
  row.rounds_per_sec = static_cast<double>(row.rounds) / elapsed;
  return row;
}

/// Decision equivalence inside the bench: a speedup between two mappers that
/// disagree would be measuring the wrong thing.
void check_equivalence(const std::string& name, const BenchScenario& scenario) {
  const auto fast = kFast.make(name);
  const auto reference = kReference.make(name);
  SchedulingContext fast_context = scenario.make_context();
  SchedulingContext reference_context = scenario.make_context();
  const auto got = schedule(*fast, fast_context);
  const auto want = schedule(*reference, reference_context);
  bool same = got.size() == want.size();
  for (std::size_t k = 0; same && k < got.size(); ++k) {
    same = got[k].task == want[k].task && got[k].machine == want[k].machine;
  }
  if (!same) {
    throw e2c::InvariantError("fast/reference divergence in " + name);
  }
}

struct EndToEndRow {
  std::string policy;
  std::string impl;
  std::size_t tasks = 0;
  std::uint64_t events = 0;
  std::uint64_t scheduler_invocations = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
};

EndToEndRow run_end_to_end(const std::string& name, const Impl& impl) {
  e2c::sched::SystemConfig config = e2c::exp::heterogeneous_classroom(2);
  const auto machine_types = e2c::exp::machine_types_of(config);
  // Overload (rho 4) keeps a deep batch queue in front of the mapper for the
  // whole run — the regime where mapper cost dominates the event loop.
  const auto generator = e2c::workload::config_for_offered_load(
      config.eet, machine_types, /*rho=*/4.0, /*duration=*/8000.0, /*seed=*/20230607);
  const auto workload = e2c::workload::generate_workload(config.eet, generator);

  EndToEndRow row;
  row.policy = name;
  row.impl = impl.name;
  row.tasks = workload.size();

  e2c::sched::Simulation simulation(std::move(config), impl.make(name));
  simulation.load(workload);
  const auto start = std::chrono::steady_clock::now();
  simulation.run();
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  row.events = simulation.engine().processed_count();
  row.scheduler_invocations = simulation.scheduler_invocations();
  if (row.seconds > 0.0) {
    row.events_per_sec = static_cast<double>(row.events) / row.seconds;
  }
  return row;
}

std::vector<std::size_t> parse_depths(const std::string& csv) {
  std::vector<std::size_t> depths;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const long long value = std::stoll(token);
    e2c::require_input(value > 0, "--depths entries must be positive integers");
    depths.push_back(static_cast<std::size_t>(value));
  }
  e2c::require_input(!depths.empty(), "--depths needs at least one entry");
  return depths;
}

struct Speedup {
  std::string policy;
  std::size_t depth = 0;
  double speedup = 0.0;  // fast rounds/s over reference rounds/s
};

void write_json(const std::string& path, const std::vector<ScheduleRow>& schedule_rows,
                const std::vector<Speedup>& speedups,
                const std::vector<EndToEndRow>& end_to_end) {
  std::ofstream out(path);
  if (!out.good()) throw e2c::IoError("cannot write " + path);
  out << "{\n  \"bench\": \"sched_hotpath\",\n  \"schedule_results\": [\n";
  for (std::size_t i = 0; i < schedule_rows.size(); ++i) {
    const ScheduleRow& row = schedule_rows[i];
    out << "    {\"policy\": \"" << row.policy << "\", \"impl\": \"" << row.impl
        << "\", \"depth\": " << row.depth << ", \"invocations\": " << row.invocations
        << ", \"rounds\": " << row.rounds << ", \"assignments\": " << row.assignments
        << ", \"seconds\": " << row.seconds
        << ", \"invocations_per_sec\": " << row.invocations_per_sec
        << ", \"rounds_per_sec\": " << row.rounds_per_sec << "}"
        << (i + 1 < schedule_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedups\": [\n";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    out << "    {\"policy\": \"" << speedups[i].policy
        << "\", \"depth\": " << speedups[i].depth
        << ", \"speedup\": " << speedups[i].speedup << "}"
        << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < end_to_end.size(); ++i) {
    const EndToEndRow& row = end_to_end[i];
    out << "    {\"policy\": \"" << row.policy << "\", \"impl\": \"" << row.impl
        << "\", \"tasks\": " << row.tasks << ", \"events\": " << row.events
        << ", \"scheduler_invocations\": " << row.scheduler_invocations
        << ", \"seconds\": " << row.seconds
        << ", \"events_per_sec\": " << row.events_per_sec << "}"
        << (i + 1 < end_to_end.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> depths = {100, 1'000, 10'000};
  std::string out_path = "BENCH_sched_hotpath.json";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--depths" && i + 1 < argc) {
        depths = parse_depths(argv[++i]);
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--help") {
        std::cout << "usage: bench_sched_hotpath [--depths N,N,...] [--out FILE.json]\n";
        return 0;
      } else {
        std::cerr << "bench_sched_hotpath: unknown argument '" << arg << "'\n";
        return 2;
      }
    }

    std::vector<ScheduleRow> schedule_rows;
    std::vector<Speedup> speedups;
    std::cout << "==== schedule() throughput: rounds/sec by mapper, impl, depth ====\n";
    for (const std::string& name : e2c::test::reference_policy_names()) {
      for (const std::size_t depth : depths) {
        const BenchScenario scenario = make_scenario(depth);
        check_equivalence(name, scenario);
        const ScheduleRow fast = time_schedule(name, kFast, scenario, depth);
        const ScheduleRow reference = time_schedule(name, kReference, scenario, depth);
        Speedup speedup;
        speedup.policy = name;
        speedup.depth = depth;
        speedup.speedup = reference.rounds_per_sec > 0.0
                              ? fast.rounds_per_sec / reference.rounds_per_sec
                              : 0.0;
        for (const ScheduleRow& row : {fast, reference}) {
          std::cout << row.policy << " impl=" << row.impl << " depth=" << row.depth
                    << " invocations=" << row.invocations
                    << " rounds/sec=" << static_cast<std::uint64_t>(row.rounds_per_sec)
                    << "\n";
          schedule_rows.push_back(row);
        }
        std::cout << "  -> " << name << " depth=" << depth << " speedup=" << speedup.speedup
                  << "x\n";
        speedups.push_back(speedup);
      }
    }

    std::vector<EndToEndRow> end_to_end;
    std::cout << "==== end-to-end events/sec at overload (rho=4) ====\n";
    for (const std::string name : {"MM", "ELARE"}) {
      for (const Impl& impl : {kFast, kReference}) {
        const EndToEndRow row = run_end_to_end(name, impl);
        std::cout << row.policy << " impl=" << row.impl << " tasks=" << row.tasks
                  << " events=" << row.events
                  << " events/sec=" << static_cast<std::uint64_t>(row.events_per_sec)
                  << " scheduler_invocations=" << row.scheduler_invocations << "\n";
        end_to_end.push_back(row);
      }
    }

    write_json(out_path, schedule_rows, speedups, end_to_end);
    std::cout << "wrote " << out_path << "\n";
    return 0;
  } catch (const e2c::InputError& error) {
    std::cerr << "bench_sched_hotpath: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "bench_sched_hotpath: " << error.what() << "\n";
    return 1;
  }
}
