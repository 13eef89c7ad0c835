/// \file batch.hpp
/// \brief The batch-mode mapping heuristics of the paper: MM, MMU and MSD.
///
/// Batch mode (Maheswaran et al. [13], Mokhtari et al. [14]): tasks buffer
/// in the batch queue and the scheduler maps possibly several of them per
/// invocation, against bounded machine queues. All three policies share the
/// iterative structure of Min-Min: repeatedly pick a (task, machine) pair,
/// commit it to the projection, and continue until the batch queue drains or
/// no machine has a free slot. They differ in *which task* is picked next.
///
/// All three defer tasks whose best-case completion already misses the
/// deadline (the E2C authors' task-pruning mechanism [8]/[10]/[14]): doomed
/// work stays in the batch queue and is cancelled at its deadline instead of
/// occupying a machine until the drop.
///
/// The mapper is incremental (DESIGN.md §8). The original full-rescan
/// mapper lives on as the tests' decision-equivalence oracle
/// (tests/support); the run-digest goldens and the differential fuzz test
/// hold the two to identical assignment sequences.
#pragma once

#include "sched/mapper_scratch.hpp"
#include "sched/policy.hpp"

namespace e2c::sched {

/// MinCompletion-MinCompletion (classic Min-Min): next pick is the task
/// whose best-case completion time is smallest. Maximizes short-term
/// throughput; long tasks can starve under load.
class MinMinPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "MM"; }
  [[nodiscard]] PolicyMode mode() const override { return PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) override;

 private:
  BatchMapperScratch scratch_;
};

/// MinCompletion-MaxUrgency: next pick is the task with the smallest slack
/// (deadline minus best completion time); the mapping machine is still the
/// completion-time minimizer. Prioritizes tasks about to miss.
class MaxUrgencyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "MMU"; }
  [[nodiscard]] PolicyMode mode() const override { return PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) override;

 private:
  BatchMapperScratch scratch_;
};

/// MinCompletion-SoonestDeadline: next pick is the task with the earliest
/// absolute deadline (EDF flavour); machine is the completion-time
/// minimizer.
class SoonestDeadlinePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "MSD"; }
  [[nodiscard]] PolicyMode mode() const override { return PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) override;

 private:
  BatchMapperScratch scratch_;
};

}  // namespace e2c::sched
