// Run-digest guard for the simulation hot path.
//
// For every registered policy, three full simulations (plain, fault-injected,
// autoscaled) are reduced to one 64-bit FNV-1a digest over the complete
// per-task outcome records plus the summary metrics. The golden values below
// were captured from the std::map calendar / string-label implementation, so
// any refactor of the event queue, label machinery or batch-queue structure
// that changes *anything* observable — task statuses, timestamps (bitwise),
// counters, energy — fails here. This is the determinism contract: the
// calendar's (time, priority, insertion sequence) total order must be
// bit-identical across implementations.
//
// Regenerate goldens (only when an intentional semantic change lands):
//   E2C_PRINT_DIGESTS=1 ./test_run_digest --gtest_filter='*Digest*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "net/comm_model.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "support/digest_scenarios.hpp"
#include "support/reference_mappers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::sched::Simulation;
using e2c::sched::SystemConfig;

using e2c::test::digest_of;

std::uint64_t run_digest(SystemConfig config, std::unique_ptr<e2c::sched::Policy> policy,
                         double rho = e2c::test::kDigestRho,
                         double duration = e2c::test::kDigestDuration) {
  const auto workload = e2c::test::digest_workload(config, rho, duration);
  Simulation simulation(std::move(config), std::move(policy));
  simulation.load(workload);
  simulation.run();
  return digest_of(simulation);
}

// Golden digests captured from the seed implementation (std::map calendar,
// eager string labels, vector batch queue). Keyed "scenario/policy".
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> golden = {
      // clang-format off
      {"plain/FCFS", 0xCB3E0F02E1197FCAull},
      {"plain/MEET", 0xBC8BBF9CDC4AAB12ull},
      {"plain/MECT", 0x4312A98D3F343548ull},
      {"plain/FTMIN-EET", 0x4312A98D3F343548ull},
      {"plain/MM", 0x4312A98D3F343548ull},
      {"plain/MMU", 0x4312A98D3F343548ull},
      {"plain/MSD", 0x4312A98D3F343548ull},
      {"plain/ELARE", 0x94C2DA303CA74898ull},
      {"plain/FELARE", 0x94C2DA303CA74898ull},
      {"plain/FairShare", 0x4312A98D3F343548ull},
      {"plain/PAM", 0x4312A98D3F343548ull},
      {"faults/FCFS", 0x87592684AF278DEAull},
      {"faults/MEET", 0x7C2E45C6B1504F0Full},
      {"faults/MECT", 0x38CA60D80096BB7Dull},
      {"faults/FTMIN-EET", 0xE12D27033F85E0C2ull},
      {"faults/MM", 0xC6AA9B47164B9F4Cull},
      {"faults/MMU", 0x24919A16A3FF2C00ull},
      {"faults/MSD", 0x24919A16A3FF2C00ull},
      {"faults/ELARE", 0x68CB9AC2CB2D0E7Eull},
      {"faults/FELARE", 0x5537C00A222B5B22ull},
      {"faults/FairShare", 0x1F0F0C8838852B5Eull},
      {"faults/PAM", 0xC6AA9B47164B9F4Cull},
      {"autoscaled/FCFS", 0xDC9719691B61D484ull},
      {"autoscaled/MEET", 0x2C9173D56889CD8Bull},
      {"autoscaled/MECT", 0x44DB6EDFDA5A4970ull},
      {"autoscaled/FTMIN-EET", 0x44DB6EDFDA5A4970ull},
      {"autoscaled/MM", 0xA3F6229C3082FCD4ull},
      {"autoscaled/MMU", 0xDCCCE1B62C20CD05ull},
      {"autoscaled/MSD", 0xABD57C1C441CD42Dull},
      {"autoscaled/ELARE", 0xDDBC735B3A2D5FF0ull},
      {"autoscaled/FELARE", 0x80A7B50323E5273Full},
      {"autoscaled/FairShare", 0x1F1C8B34E0A9EFF4ull},
      {"autoscaled/PAM", 0xA3F6229C3082FCD4ull},
      // clang-format on
  };
  return golden;
}

TEST(RunDigest, BitIdenticalAcrossAllPoliciesAndScenarios) {
  const bool print = std::getenv("E2C_PRINT_DIGESTS") != nullptr;
  const auto& golden = golden_digests();
  for (const e2c::test::DigestScenario& scenario : e2c::test::kDigestScenarios) {
    for (const std::string& policy : e2c::sched::PolicyRegistry::instance().names()) {
      const std::string key = std::string(scenario.name) + "/" + policy;
      const std::uint64_t digest = run_digest(scenario.make(), e2c::sched::make_policy(policy));
      if (print) {
        printf("      {\"%s\", 0x%016llXull},\n", key.c_str(),
               static_cast<unsigned long long>(digest));
        continue;
      }
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << "no golden digest for " << key;
      EXPECT_EQ(digest, it->second) << key << " diverged from the seed implementation";
    }
  }
}

// Same-process determinism: repeating a run must reproduce the digest exactly
// (catches hidden global state, address-dependent ordering, map iteration).
TEST(RunDigest, RepeatedRunsAreDeterministic) {
  const std::uint64_t first =
      run_digest(e2c::test::faulty_system(), e2c::sched::make_policy("MM"));
  const std::uint64_t second =
      run_digest(e2c::test::faulty_system(), e2c::sched::make_policy("MM"));
  EXPECT_EQ(first, second);
}

// Deep-queue goldens: large machine-queue capacities (the upper sizes of the
// queue-size ablation bench) at overload keep tens of tasks in the batch
// queue per round — the regime the incremental mappers optimize, and the one
// the default scenarios' capacity-2 queues barely reach.
const std::map<std::string, std::uint64_t>& deep_queue_goldens() {
  static const std::map<std::string, std::uint64_t> golden = {
      // clang-format off
      {"deepq1/MM", 0x83C5931A7A6F4ADAull},
      {"deepq1/MMU", 0x0303A6B38706BF6Dull},
      {"deepq1/MSD", 0xC513850C855272EFull},
      {"deepq1/ELARE", 0x884CB2E5F0172456ull},
      {"deepq1/FELARE", 0x335EDB6D22F1CC20ull},
      {"deepq1/PAM", 0x83C5931A7A6F4ADAull},
      {"deepq8/MM", 0x3D59725ABEA95F90ull},
      {"deepq8/MMU", 0x512A7CC396CD9BEBull},
      {"deepq8/MSD", 0x1CF7233F24595F0Full},
      {"deepq8/ELARE", 0x9E0463D97D43E024ull},
      {"deepq8/FELARE", 0xC99FD891789269D1ull},
      {"deepq8/PAM", 0x3D59725ABEA95F90ull},
      // clang-format on
  };
  return golden;
}

TEST(RunDigest, DeepQueueBatchGoldens) {
  const bool print = std::getenv("E2C_PRINT_DIGESTS") != nullptr;
  const auto& golden = deep_queue_goldens();
  for (const std::size_t capacity : e2c::test::kDeepQueueCapacities) {
    for (const std::string& policy : e2c::sched::batch_policy_names()) {
      const std::string key = "deepq" + std::to_string(capacity) + "/" + policy;
      const std::uint64_t digest = run_digest(
          e2c::exp::heterogeneous_classroom(capacity), e2c::sched::make_policy(policy),
          e2c::test::kDeepQueueRho, e2c::test::kDeepQueueDuration);
      if (print) {
        printf("      {\"%s\", 0x%016llXull},\n", key.c_str(),
               static_cast<unsigned long long>(digest));
        continue;
      }
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << "no golden digest for " << key;
      EXPECT_EQ(digest, it->second) << key << " diverged from the seed implementation";
    }
  }
}

/// The per-task outcome columns a mapper decision reaches: which machine,
/// when, how it ended and what it cost. Compared task by task so a divergence
/// names the first task that differs, on top of the full run digest.
struct TaskOutcome {
  e2c::workload::TaskStatus status = e2c::workload::TaskStatus::kPending;
  std::uint32_t machine = 0;
  double assignment_time = 0.0;
  double start_time = 0.0;
  double completion_time = 0.0;
  double missed_time = 0.0;
  std::uint32_t retries = 0;
  double useful_seconds = 0.0;
  double lost_seconds = 0.0;
  double checkpoint_overhead_seconds = 0.0;
  double machine_seconds = 0.0;
  bool operator==(const TaskOutcome&) const = default;
};

struct RunOutcome {
  std::vector<TaskOutcome> tasks;
  std::uint64_t digest = 0;  ///< digest_of() the finished run
  std::uint64_t scheduler_invocations = 0;
  std::size_t requeued = 0;
};

RunOutcome run_outcome(SystemConfig config, std::unique_ptr<e2c::sched::Policy> policy,
                       double deadline_lo, double deadline_hi, double duration = 60.0) {
  const auto machine_types = e2c::exp::machine_types_of(config);
  auto generator = e2c::workload::config_for_offered_load(
      config.eet, machine_types, /*rho=*/4.0, duration, /*seed=*/20230607);
  generator.deadline_factor_lo = deadline_lo;
  generator.deadline_factor_hi = deadline_hi;
  const auto workload = e2c::workload::generate_workload(config.eet, generator);

  Simulation simulation(std::move(config), std::move(policy));
  simulation.load(workload);
  simulation.run();

  RunOutcome outcome;
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    outcome.tasks.push_back(TaskOutcome{state.status[i], state.machine[i],
                                        state.assignment_time[i], state.start_time[i],
                                        state.completion_time(i), state.missed_time(i),
                                        state.retries(i), state.useful_seconds[i],
                                        state.lost_seconds(i),
                                        state.checkpoint_overhead_seconds(i),
                                        state.machine_seconds[i]});
  }
  outcome.digest = digest_of(simulation);
  outcome.scheduler_invocations = simulation.scheduler_invocations();
  outcome.requeued = simulation.counters().requeued;
  return outcome;
}

SystemConfig with_retries(SystemConfig config) {
  config.faults.enabled = true;
  config.faults.mtbf = 20.0;
  config.faults.mttr = 2.0;
  config.faults.seed = 7;
  config.faults.retry.backoff_base = 0.25;
  return config;
}

SystemConfig with_replicas(SystemConfig config) {
  config = with_retries(std::move(config));
  config.faults.recovery.strategy = e2c::fault::RecoveryStrategy::kReplicate;
  config.faults.recovery.replicas = 2;
  return config;
}

SystemConfig with_transfers(SystemConfig config) {
  config.comm = e2c::net::CommModel::uniform(config.eet.task_type_count(),
                                            config.eet.machine_type_count(),
                                            /*payload_mb=*/40.0, e2c::net::LinkSpec{0.05, 100.0});
  return config;
}

// T1 and T3 share one EET row, so their (type, machine) pairs score exactly
// alike and every pick between them falls to arrival order.
SystemConfig duplicate_row_system(std::size_t capacity) {
  e2c::hetero::EetMatrix eet({"T1", "T2", "T3", "T4"}, {"x86-cpu", "gpu", "fpga", "asic"},
                             {{12.0, 2.5, 6.0, 1.2},
                              {6.0, 3.0, 2.0, 14.0},
                              {12.0, 2.5, 6.0, 1.2},
                              {4.0, 6.0, 4.5, 9.0}});
  return e2c::sched::make_default_system(std::move(eet), capacity);
}

// Every classroom machine twice: the twins score exactly alike whenever
// their ready times agree, so machine ties fall to the lower index.
SystemConfig twin_machine_system(std::size_t capacity) {
  SystemConfig config = e2c::exp::heterogeneous_classroom(capacity);
  const std::size_t count = config.machines.size();
  for (std::size_t m = 0; m < count; ++m) {
    e2c::sched::MachineInstance twin = config.machines[m];
    twin.name += "-twin";
    config.machines.push_back(twin);
  }
  return config;
}

// The sweep workload's catalog shape: 1024 task types with a random
// inconsistent EET on four machines, so a round's queue touches a handful
// of types out of a thousand; with faults and checkpoint recovery.
SystemConfig sparse_catalog_system() {
  e2c::util::Rng rng(0xE2CBE4C11);
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  for (int t = 0; t < 1024; ++t) task_names.push_back("T" + std::to_string(t));
  for (int m = 0; m < 4; ++m) machine_names.push_back("M" + std::to_string(m));
  SystemConfig config = with_retries(e2c::sched::make_default_system(
      e2c::hetero::EetMatrix::random(std::move(task_names), std::move(machine_names),
                                     /*base=*/2.0, /*task_range=*/4.0,
                                     /*machine_range=*/4.0, /*inconsistent=*/true, rng),
      /*machine_queue_capacity=*/2));
  config.faults.recovery.strategy = e2c::fault::RecoveryStrategy::kCheckpoint;
  return config;
}

// End-to-end decision equivalence: a full simulation under the fast mappers
// must match the same simulation under the reference mappers — the full run
// digest and every task's record — for every batch policy. The fast ELARE/FELARE path keeps its per-type
// batch-queue index across scheduler invocations, so the scenarios push that
// index through every way the queue changes between rounds:
//  - queue capacities 1/2/8/16, and deadlines of 40-80x the mean EET that
//    keep hundreds of tasks queued (the overload shape);
//  - fault retries, which re-enter a task at the tail so queue order is no
//    longer task-index order;
//  - replication, whose co-location skip leaves an assigned task queued;
//  - payload transfers, which hold reserved slots across rounds;
//  - an EET with duplicate rows, so pairs of different types tie exactly,
//    and duplicate machines, so pairs on different machines do;
//  - a 1024-type catalog with faults and checkpoints, so per-type scratch
//    outlives the few types any one round queues.
// FELARE's on-time rates move as tasks finish, so its fairness factors differ
// from round to round in every scenario.
TEST(RunDigest, FastImplMatchesReferenceEndToEnd) {
  // The roster is the oracles', not batch_policy_names(): a batch policy
  // without a reference mapper must fail loudly here, not be compared with
  // itself.
  EXPECT_THROW((void)e2c::test::make_reference_policy("PAM"), e2c::UnknownPolicyError);
  EXPECT_THROW((void)e2c::test::make_reference_policy("FairShare"), e2c::UnknownPolicyError);
  struct Case {
    std::string name;
    std::function<SystemConfig()> make;
    double deadline_lo = 2.0;
    double deadline_hi = 4.0;
    bool faults = false;
    double duration = 60.0;
  };
  std::vector<Case> cases;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                                     std::size_t{16}}) {
    cases.push_back({"capacity" + std::to_string(capacity),
                     [capacity] { return e2c::exp::heterogeneous_classroom(capacity); }});
  }
  cases.push_back({"deep-queue", [] { return e2c::exp::heterogeneous_classroom(2); }, 40.0,
                   80.0});
  cases.push_back({"retries",
                   [] { return with_retries(e2c::exp::heterogeneous_classroom(2)); }, 10.0,
                   20.0, true});
  cases.push_back({"replicate",
                   [] { return with_replicas(e2c::exp::heterogeneous_classroom(2)); }, 10.0,
                   20.0, true});
  cases.push_back({"transfers",
                   [] { return with_transfers(e2c::exp::heterogeneous_classroom(2)); }, 10.0,
                   20.0});
  cases.push_back({"duplicate-rows", [] { return duplicate_row_system(2); }, 10.0, 20.0});
  cases.push_back({"twin-machines", [] { return twin_machine_system(1); }});
  cases.push_back({"duplicate-rows-faults",
                   [] { return with_retries(duplicate_row_system(8)); }, 10.0, 20.0, true});
  cases.push_back({"sparse-catalog-checkpoint", sparse_catalog_system, 2.0, 4.0, true, 600.0});

  for (const Case& c : cases) {
    for (const std::string& policy : e2c::test::reference_policy_names()) {
      SCOPED_TRACE(c.name + " " + policy);
      const RunOutcome fast = run_outcome(c.make(), e2c::sched::make_policy(policy),
                                          c.deadline_lo, c.deadline_hi, c.duration);
      const RunOutcome reference =
          run_outcome(c.make(), e2c::test::make_reference_policy(policy), c.deadline_lo,
                      c.deadline_hi, c.duration);
      if (c.faults) {
        EXPECT_GT(fast.requeued, 0u) << "scenario never retried a task";
      }
      EXPECT_EQ(fast.scheduler_invocations, reference.scheduler_invocations);
      ASSERT_EQ(fast.tasks.size(), reference.tasks.size());
      for (std::size_t i = 0; i < fast.tasks.size(); ++i) {
        ASSERT_EQ(fast.tasks[i], reference.tasks[i]) << "first divergence at task row " << i;
      }
      EXPECT_EQ(fast.digest, reference.digest);
    }
  }
}

}  // namespace
