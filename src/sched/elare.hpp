/// \file elare.hpp
/// \brief ELARE and FELARE: energy-&-latency-aware batch policies.
///
/// These reproduce the policies of Mokhtari et al., "FELARE: Fair Scheduling
/// of Machine Learning Applications on Heterogeneous Edge Systems"
/// (IEEE Cloud '22), which the paper lists among E2C's batch options.
///
/// ELARE scores each feasible (task, machine) pair by a convex combination
/// of normalized expected energy and normalized expected completion time and
/// repeatedly commits the lowest-scoring pair. A pair is feasible when the
/// projected completion meets the task's deadline; tasks that are infeasible
/// on every machine are *deferred* (left unmapped) so they do not burn
/// energy on a machine only to be dropped — the task-pruning idea of the
/// FELARE line of work.
///
/// FELARE adds fairness across task types: the score of a task type that is
/// observably suffering (low on-time completion rate so far) is discounted,
/// pulling its tasks forward in the mapping order.
///
/// The structure follows the published description; the exact normalization
/// constants below are this implementation's (documented) choices.
///
/// The mapper works over the per-type batch-queue index (per-(type, machine)
/// pair tables, no per-task work beyond the few tasks a pick walks past —
/// DESIGN.md §8). The original full-rescan mapper lives on as the tests'
/// decision-equivalence oracle (tests/support), which reads the scoring
/// hooks below, so it also checks a subclass that overrides them.
#pragma once

#include "sched/mapper_scratch.hpp"
#include "sched/policy.hpp"

namespace e2c::sched {

/// Energy-Latency-Aware Resource allocation (batch mode).
class ElarePolicy : public Policy {
 public:
  /// \param energy_weight weight of the energy term in [0, 1]; the latency
  /// term gets 1 - energy_weight. The published evaluation balances the two.
  explicit ElarePolicy(double energy_weight = 0.5);

  [[nodiscard]] std::string name() const override { return "ELARE"; }
  [[nodiscard]] PolicyMode mode() const override { return PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) override;

  /// Weight of the energy term in [0, 1]; the latency term gets the rest.
  [[nodiscard]] double energy_weight() const noexcept { return energy_weight_; }

  /// Fairness discount multiplier (> 0) for the score of every task of
  /// \p type; 1.0 in plain ELARE, overridden by FELARE. The factor is per
  /// task type: the mapper scores (type, machine) pairs, never single
  /// tasks, and computes the factor once per type per invocation, so
  /// overrides must not depend on the machine projections (which change as
  /// the mapper commits picks) — both built-ins depend only on the type's
  /// observed on-time rate.
  [[nodiscard]] virtual double fairness_factor(const SchedulingContext& context,
                                               hetero::TaskTypeId type) const;

 private:
  double energy_weight_;
  ElareMapperScratch scratch_;
};

/// Fair ELARE: boosts task types with the worst observed on-time rate.
class FelarePolicy final : public ElarePolicy {
 public:
  explicit FelarePolicy(double energy_weight = 0.5) : ElarePolicy(energy_weight) {}
  [[nodiscard]] std::string name() const override { return "FELARE"; }
  [[nodiscard]] double fairness_factor(const SchedulingContext& context,
                                       hetero::TaskTypeId type) const override;
};

}  // namespace e2c::sched
