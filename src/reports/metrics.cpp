#include "reports/metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace e2c::reports {

Metrics compute_metrics(const sched::Simulation& simulation) {
  Metrics metrics;
  const auto& counters = simulation.counters();
  metrics.total_tasks = counters.total;
  metrics.completed = counters.completed;
  metrics.cancelled = counters.cancelled;
  metrics.dropped = counters.dropped;
  metrics.failed = counters.failed;
  metrics.requeued = counters.requeued;

  const auto pct = [&](std::size_t n) {
    return counters.total == 0
               ? 0.0
               : 100.0 * static_cast<double>(n) / static_cast<double>(counters.total);
  };
  metrics.completion_percent = pct(counters.completed);
  metrics.cancelled_percent = pct(counters.cancelled);
  metrics.dropped_percent = pct(counters.dropped);
  metrics.failed_percent = pct(counters.failed);

  util::RunningStats waits;
  util::RunningStats responses;
  const workload::TaskStateSoA& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (const core::SimTime wait = state.wait_time(i); core::time_set(wait)) waits.add(wait);
    if (const core::SimTime response = state.response_time(i); core::time_set(response)) {
      responses.add(response);
    }
    if (const core::SimTime done = state.completion_time(i); core::time_set(done)) {
      metrics.makespan = std::max(metrics.makespan, done);
    }
  }
  metrics.mean_wait = waits.mean();
  metrics.mean_response = responses.mean();

  const core::SimTime horizon = simulation.engine().now();
  metrics.total_energy_joules = simulation.total_energy_joules(horizon);
  metrics.energy_per_completed_task =
      counters.completed == 0
          ? 0.0
          : metrics.total_energy_joules / static_cast<double>(counters.completed);
  metrics.dynamic_energy_joules = simulation.total_dynamic_energy_joules(horizon);
  metrics.dynamic_energy_per_completed_task =
      counters.completed == 0
          ? 0.0
          : metrics.dynamic_energy_joules / static_cast<double>(counters.completed);

  metrics.type_fairness_jain = util::jain_fairness(simulation.type_ontime_rates());

  metrics.lost_work_seconds = simulation.lost_work_seconds();
  metrics.checkpoint_overhead_seconds = simulation.checkpoint_overhead_seconds();
  metrics.cancelled_replica_seconds = counters.cancelled_replica_seconds;
  metrics.checkpoints_taken = simulation.checkpoints_taken();
  metrics.replicas_cancelled = counters.replicas_cancelled;
  return metrics;
}

}  // namespace e2c::reports
