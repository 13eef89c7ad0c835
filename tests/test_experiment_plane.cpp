// Tests for the experiment data plane (exp::DataPlane): the shared
// immutable-workload plane must be indistinguishable, byte for byte, from
// the per-run plane it replaced, across worker counts (the sharded
// per-replication path with worker-local Simulation leases) and across
// backends, the progress callback must fire once per cell in result order,
// and a throwing cell must degrade to a failed status row instead of
// aborting the sweep.
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "util/csv.hpp"

namespace {

namespace exp = e2c::exp;
using e2c::workload::Intensity;

exp::ExperimentSpec plane_spec() {
  exp::ExperimentSpec spec;
  spec.system = exp::heterogeneous_classroom();
  // One immediate and one batch policy: the shared plane reuses one
  // Simulation per cell, and the two modes bake different queue behavior
  // into the machines at construction.
  spec.policies = {"MECT", "MM"};
  spec.intensities = {Intensity::kLow, Intensity::kHigh};
  spec.replications = 3;
  spec.duration = 60.0;
  spec.base_seed = 7;
  return spec;
}

exp::ExperimentSpec faulty_spec() {
  exp::ExperimentSpec spec = plane_spec();
  spec.system.faults.enabled = true;
  spec.system.faults.mtbf = 30.0;
  spec.system.faults.mttr = 5.0;
  spec.system.faults.seed = 99;
  return spec;
}

std::string csv_text(const exp::ExperimentResult& result) {
  return e2c::util::to_csv(exp::result_csv(result));
}

TEST(ExperimentPlane, SharedMatchesPerRunByteForByte) {
  const auto shared =
      exp::run_experiment(plane_spec(), 1, exp::DataPlane::kShared);
  const auto per_run =
      exp::run_experiment(plane_spec(), 1, exp::DataPlane::kPerRun);
  EXPECT_EQ(csv_text(shared), csv_text(per_run));
}

TEST(ExperimentPlane, SharedMatchesPerRunUnderFaultInjection) {
  // reset() must rebuild the failure schedule exactly (injector recreated,
  // machines back online) or replications after the first diverge.
  const auto shared =
      exp::run_experiment(faulty_spec(), 1, exp::DataPlane::kShared);
  const auto per_run =
      exp::run_experiment(faulty_spec(), 1, exp::DataPlane::kPerRun);
  EXPECT_EQ(csv_text(shared), csv_text(per_run));
}

TEST(ExperimentPlane, WorkerCountDoesNotChangeResultCsvBytes) {
  // Guards the per-replication sharding against aggregation-order,
  // lease-interleaving, and RNG-stream bugs: any worker count must emit the
  // identical CSV bytes, with and without fault injection. Different worker
  // counts exercise different steal patterns, so each leased Simulation sees
  // a different (policy, trace) reset sequence — results must not care.
  for (const exp::ExperimentSpec& spec : {plane_spec(), faulty_spec()}) {
    const std::string golden = csv_text(exp::run_experiment(spec, 1));
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      EXPECT_EQ(csv_text(exp::run_experiment(spec, workers)), golden)
          << "threads backend diverged at " << workers << " workers";
    }
  }
}

TEST(ExperimentPlane, ProcsBackendMatchesThreadsAcrossWorkerCounts) {
  // The process backend computes whole cells in isolated workers; the
  // threads backend shards per replication onto leased Simulations. Both
  // must produce the same bytes at every worker count.
  for (const exp::ExperimentSpec& spec : {plane_spec(), faulty_spec()}) {
    const std::string golden = csv_text(exp::run_experiment(spec, 1));
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      exp::RunOptions options;
      options.workers = workers;
      options.backend = exp::Backend::kProcs;
      EXPECT_EQ(csv_text(exp::run_experiment(spec, options)), golden)
          << "procs backend diverged at " << workers << " workers";
    }
  }
}

/// Immediate-mode policy that throws out of schedule(): the forcing function
/// for the graceful-degradation path. Registered once per process; the
/// procs backend inherits it across fork().
class ThrowingPolicy final : public e2c::sched::Policy {
 public:
  [[nodiscard]] std::string name() const override { return "ThrowOnSchedule"; }
  [[nodiscard]] e2c::sched::PolicyMode mode() const override {
    return e2c::sched::PolicyMode::kImmediate;
  }
  void schedule_into(e2c::sched::SchedulingContext&,
                     std::vector<e2c::sched::Assignment>&) override {
    throw std::runtime_error("ThrowOnSchedule: forced cell failure");
  }
};

void register_throwing_policy() {
  e2c::sched::PolicyRegistry::instance().register_policy(
      "ThrowOnSchedule", [] { return std::make_unique<ThrowingPolicy>(); });
}

TEST(ExperimentPlane, ThrowingCellDegradesGracefullyAndMatchesProcs) {
  // A cell that throws on the threads backend used to abort the whole sweep
  // out of future::get(); now it must be recorded as a failed cell with
  // empty runs while every other cell completes — the same degradation the
  // procs backend has always had (there the worker dies and retries
  // exhaust). Both backends must emit identical CSV bytes for the mix.
  register_throwing_policy();
  exp::ExperimentSpec spec = plane_spec();
  spec.policies = {"MECT", "ThrowOnSchedule"};
  spec.intensities = {Intensity::kLow};
  spec.replications = 2;

  exp::RunOptions threads_options;
  threads_options.workers = 2;
  const auto threads_result = exp::run_experiment(spec, threads_options);
  ASSERT_EQ(threads_result.cells.size(), 2u);
  const auto& ok_cell = threads_result.cell("MECT", Intensity::kLow);
  const auto& bad_cell = threads_result.cell("ThrowOnSchedule", Intensity::kLow);
  EXPECT_EQ(ok_cell.status, exp::CellStatus::kOk);
  EXPECT_EQ(ok_cell.runs.size(), 2u);
  EXPECT_EQ(bad_cell.status, exp::CellStatus::kFailed);
  EXPECT_TRUE(bad_cell.runs.empty());
  EXPECT_EQ(threads_result.health.completed_cells, 1u);
  EXPECT_EQ(threads_result.health.failed_cells, 1u);

  exp::RunOptions procs_options;
  procs_options.workers = 2;
  procs_options.backend = exp::Backend::kProcs;
  procs_options.max_retries = 1;
  const auto procs_result = exp::run_experiment(spec, procs_options);
  EXPECT_EQ(csv_text(threads_result), csv_text(procs_result));
  EXPECT_EQ(procs_result.health.failed_cells, 1u);
}

TEST(ExperimentPlane, ProgressFiresOncePerCellInResultOrder) {
  for (const exp::DataPlane plane :
       {exp::DataPlane::kShared, exp::DataPlane::kPerRun}) {
    std::vector<std::pair<std::string, Intensity>> seen;
    std::size_t reported_total = 0;
    const auto result = exp::run_experiment(
        plane_spec(), 2, plane,
        [&](std::size_t done, std::size_t total, const exp::CellResult& cell) {
          EXPECT_EQ(done, seen.size() + 1);
          reported_total = total;
          seen.emplace_back(cell.policy, cell.intensity);
        });
    ASSERT_EQ(seen.size(), result.cells.size());
    EXPECT_EQ(reported_total, result.cells.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].first, result.cells[i].policy);
      EXPECT_EQ(seen[i].second, result.cells[i].intensity);
    }
  }
}

}  // namespace
