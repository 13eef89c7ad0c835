#include "reports/report.hpp"

#include "reports/metrics.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace e2c::reports {

namespace {

std::string opt_time(core::SimTime value) {
  return core::time_set(value) ? util::format_fixed(value, 2) : std::string{};
}

std::string machine_name_of(const sched::Simulation& simulation, std::uint32_t machine) {
  if (machine == workload::kNoMachine) return {};
  return simulation.machine(machine).name();
}

}  // namespace

const char* report_kind_name(ReportKind kind) noexcept {
  switch (kind) {
    case ReportKind::kTask: return "task";
    case ReportKind::kMachine: return "machine";
    case ReportKind::kSummary: return "summary";
    case ReportKind::kFull: return "full";
    case ReportKind::kMissed: return "missed";
  }
  return "unknown";
}

std::vector<std::vector<std::string>> task_report(const sched::Simulation& simulation) {
  const workload::TaskStateSoA& state = simulation.task_state();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(state.size() + 1);
  rows.push_back({"task_id", "task_type", "status", "assigned_machine", "arrival_time",
                  "deadline", "start_time", "completion_time", "missed_time",
                  "wait_time", "response_time", "retries", "useful_s", "lost_s",
                  "ckpt_overhead_s", "replica_of"});
  for (std::size_t i = 0; i < state.size(); ++i) {
    const workload::TaskDef& def = state.def(i);
    const workload::TaskId primary =
        state.has_replica_column() ? state.replica_of[i] : workload::kNoTaskId;
    rows.push_back({std::to_string(def.id),
                    simulation.eet().task_type_name(def.type),
                    workload::task_status_name(state.status[i]),
                    machine_name_of(simulation, state.machine[i]),
                    util::format_fixed(def.arrival, 2),
                    def.deadline == core::kTimeInfinity
                        ? std::string{}
                        : util::format_fixed(def.deadline, 2),
                    opt_time(state.start_time[i]), opt_time(state.completion_time(i)),
                    opt_time(state.missed_time(i)),
                    opt_time(state.wait_time(i)),
                    opt_time(state.response_time(i)),
                    std::to_string(state.retries(i)),
                    util::format_fixed(state.useful_seconds[i], 2),
                    util::format_fixed(state.lost_seconds(i), 2),
                    util::format_fixed(state.checkpoint_overhead_seconds(i), 2),
                    primary == workload::kNoTaskId ? std::string{}
                                                   : std::to_string(primary)});
  }
  return rows;
}

std::vector<std::vector<std::string>> machine_report(const sched::Simulation& simulation) {
  const core::SimTime horizon = simulation.engine().now();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(simulation.machine_count() + 1);
  rows.push_back({"machine", "machine_type", "tasks_completed", "tasks_dropped",
                  "tasks_aborted", "failures", "availability", "busy_seconds",
                  "utilization", "energy_joules"});
  for (std::size_t i = 0; i < simulation.machine_count(); ++i) {
    const machines::Machine& machine = simulation.machine(i);
    const machines::MachineStats stats = machine.finalize_stats(horizon);
    rows.push_back({machine.name(),
                    simulation.eet().machine_type_name(machine.type()),
                    std::to_string(stats.tasks_completed),
                    std::to_string(stats.tasks_dropped),
                    std::to_string(stats.tasks_aborted),
                    std::to_string(stats.failures),
                    util::format_fixed(machine.availability(horizon), 4),
                    util::format_fixed(stats.busy_seconds, 2),
                    util::format_fixed(stats.utilization(), 4),
                    util::format_fixed(machine.energy_joules(horizon), 2)});
  }
  return rows;
}

std::vector<std::vector<std::string>> summary_report(const sched::Simulation& simulation) {
  const Metrics metrics = compute_metrics(simulation);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});
  rows.push_back({"policy", simulation.policy().name()});
  rows.push_back({"total_tasks", std::to_string(metrics.total_tasks)});
  rows.push_back({"completed", std::to_string(metrics.completed)});
  rows.push_back({"cancelled", std::to_string(metrics.cancelled)});
  rows.push_back({"dropped", std::to_string(metrics.dropped)});
  rows.push_back({"failed", std::to_string(metrics.failed)});
  rows.push_back({"requeued", std::to_string(metrics.requeued)});
  if (simulation.fault_config().enabled) {
    rows.push_back({"recovery_strategy",
                    fault::recovery_strategy_name(
                        simulation.fault_config().recovery.strategy)});
  }
  rows.push_back({"lost_work_seconds", util::format_fixed(metrics.lost_work_seconds, 2)});
  rows.push_back({"checkpoint_overhead_seconds",
                  util::format_fixed(metrics.checkpoint_overhead_seconds, 2)});
  rows.push_back({"cancelled_replica_seconds",
                  util::format_fixed(metrics.cancelled_replica_seconds, 2)});
  rows.push_back({"checkpoints_taken", std::to_string(metrics.checkpoints_taken)});
  // Shared-channel rows only when the [io] channel is configured, so every
  // pre-existing summary (and its golden expectations) is unchanged.
  if (const fault::IoChannel* channel = simulation.io_channel()) {
    rows.push_back({"io_bandwidth_bytes_per_s",
                    util::format_fixed(channel->config().bandwidth, 2)});
    rows.push_back({"io_strategy", fault::io_strategy_name(channel->config().strategy)});
    rows.push_back({"io_writes_completed", std::to_string(channel->writes_completed())});
    rows.push_back({"io_reads_completed", std::to_string(channel->reads_completed())});
    rows.push_back({"io_peak_concurrent", std::to_string(channel->peak_concurrent())});
  }
  rows.push_back({"replicas_cancelled", std::to_string(metrics.replicas_cancelled)});
  rows.push_back({"completion_percent", util::format_fixed(metrics.completion_percent, 2)});
  rows.push_back({"cancelled_percent", util::format_fixed(metrics.cancelled_percent, 2)});
  rows.push_back({"dropped_percent", util::format_fixed(metrics.dropped_percent, 2)});
  rows.push_back({"failed_percent", util::format_fixed(metrics.failed_percent, 2)});
  rows.push_back({"makespan", util::format_fixed(metrics.makespan, 2)});
  rows.push_back({"mean_wait", util::format_fixed(metrics.mean_wait, 2)});
  rows.push_back({"mean_response", util::format_fixed(metrics.mean_response, 2)});
  rows.push_back({"total_energy_joules", util::format_fixed(metrics.total_energy_joules, 2)});
  rows.push_back({"energy_per_completed_task",
                  util::format_fixed(metrics.energy_per_completed_task, 2)});
  rows.push_back({"dynamic_energy_joules",
                  util::format_fixed(metrics.dynamic_energy_joules, 2)});
  rows.push_back({"dynamic_energy_per_completed_task",
                  util::format_fixed(metrics.dynamic_energy_per_completed_task, 2)});
  rows.push_back({"type_fairness_jain", util::format_fixed(metrics.type_fairness_jain, 4)});
  const std::span<const double> rates = simulation.type_ontime_rates();
  for (std::size_t t = 0; t < rates.size(); ++t) {
    rows.push_back({"completion_rate[" + simulation.eet().task_type_name(t) + "]",
                    util::format_fixed(rates[t], 4)});
  }
  const core::SimTime horizon = simulation.engine().now();
  for (std::size_t m = 0; m < simulation.machine_count(); ++m) {
    const machines::Machine& machine = simulation.machine(m);
    rows.push_back({"utilization[" + machine.name() + "]",
                    util::format_fixed(machine.finalize_stats(horizon).utilization(), 4)});
  }
  return rows;
}

std::vector<std::vector<std::string>> full_report(const sched::Simulation& simulation) {
  std::vector<std::vector<std::string>> rows = task_report(simulation);
  // Extend the header and every row with the task's EET on every machine
  // type — "how each machine performed on it".
  const auto& eet = simulation.eet();
  for (const std::string& machine_type : eet.machine_type_names()) {
    rows[0].push_back("eet_" + machine_type);
  }
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const hetero::TaskTypeId type = simulation.task_state().type(r - 1);
    for (std::size_t c = 0; c < eet.machine_type_count(); ++c) {
      rows[r].push_back(util::format_fixed(eet.eet(type, c), 2));
    }
  }
  return rows;
}

std::vector<std::vector<std::string>> missed_report(const sched::Simulation& simulation) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"task_id", "task_type", "assigned_machine", "arrival_time", "start_time",
                  "missed_time", "outcome"});
  const workload::TaskStateSoA& state = simulation.task_state();
  for (const std::size_t i : simulation.missed_tasks()) {
    rows.push_back({std::to_string(state.id(i)),
                    simulation.eet().task_type_name(state.type(i)),
                    machine_name_of(simulation, state.machine[i]),
                    util::format_fixed(state.arrival(i), 2), opt_time(state.start_time[i]),
                    opt_time(state.missed_time(i)),
                    workload::task_status_name(state.status[i])});
  }
  return rows;
}

std::vector<std::vector<std::string>> build_report(const sched::Simulation& simulation,
                                                   ReportKind kind) {
  switch (kind) {
    case ReportKind::kTask: return task_report(simulation);
    case ReportKind::kMachine: return machine_report(simulation);
    case ReportKind::kSummary: return summary_report(simulation);
    case ReportKind::kFull: return full_report(simulation);
    case ReportKind::kMissed: return missed_report(simulation);
  }
  return {};
}

void save_report_csv(const sched::Simulation& simulation, ReportKind kind,
                     const std::string& path) {
  util::write_csv_file(path, build_report(simulation, kind));
}

}  // namespace e2c::reports
