/// \file metrics.hpp
/// \brief Aggregate metrics derived from a finished simulation.
///
/// These are the quantities the paper's class assignment asks students to
/// chart (completion percentage per policy and intensity) plus the
/// energy/fairness outputs §3 advertises for researchers.
///
/// A Metrics is a fixed-size run summary with no per-type or per-machine
/// member, so a sweep holds, ships and journals O(1) bytes per replication
/// whatever the catalog size. Per-type on-time rates come from
/// Simulation::type_ontime_rates() and per-machine utilization from
/// Machine::finalize_stats(); the single-run Summary Report reads both there.
#pragma once

#include "sched/simulation.hpp"

namespace e2c::reports {

/// Everything the Summary Report prints as scalars.
struct Metrics {
  std::size_t total_tasks = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t dropped = 0;
  std::size_t failed = 0;    ///< lost to machine failures
  std::size_t requeued = 0;  ///< fault-abort retries (events)

  double completion_percent = 0.0;  ///< completed / total * 100
  double cancelled_percent = 0.0;
  double dropped_percent = 0.0;
  double failed_percent = 0.0;

  double makespan = 0.0;            ///< last completion time
  double mean_wait = 0.0;           ///< mean (start - arrival) over started tasks
  double mean_response = 0.0;       ///< mean (completion - arrival) over completed
  double total_energy_joules = 0.0; ///< two-state power model, all machines
  double energy_per_completed_task = 0.0;
  /// Execution-only (dynamic) energy; excludes the idle draw that accrues
  /// with wall time regardless of scheduling decisions.
  double dynamic_energy_joules = 0.0;
  double dynamic_energy_per_completed_task = 0.0;

  double type_fairness_jain = 1.0;  ///< Jain index over per-type on-time rates

  // Recovery waste decomposition (all zero when faults are disabled).
  double lost_work_seconds = 0.0;           ///< executed work discarded by aborts
  double checkpoint_overhead_seconds = 0.0; ///< checkpoint writes + restarts
  double cancelled_replica_seconds = 0.0;   ///< runtime of losing replicas
  std::size_t checkpoints_taken = 0;        ///< committed checkpoints
  std::size_t replicas_cancelled = 0;       ///< losing replicas cancelled

  /// Field-by-field, doubles compared exactly: what a codec round trip must
  /// preserve.
  bool operator==(const Metrics&) const = default;
};

/// Computes metrics for \p simulation (normally after run(); partial runs
/// yield partial numbers). Energy uses the current simulated time as the
/// horizon.
[[nodiscard]] Metrics compute_metrics(const sched::Simulation& simulation);

}  // namespace e2c::reports
