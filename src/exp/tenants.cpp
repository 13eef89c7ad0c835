#include "exp/tenants.hpp"

#include <algorithm>

#include "exp/scenario.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "workload/generator.hpp"

namespace e2c::exp {

workload::Workload make_multi_tenant_workload(const sched::SystemConfig& system,
                                              const std::vector<TenantSpec>& tenants) {
  require_input(!tenants.empty(), "multi-tenant workload: at least one tenant required");
  const auto machine_types = machine_types_of(system);
  std::vector<workload::TaskDef> merged;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& tenant = tenants[i];
    require_input(tenant.rho > 0.0, "multi-tenant workload: tenant '" + tenant.name +
                                        "' offered load must be > 0");
    require_input(tenant.duration > 0.0, "multi-tenant workload: tenant '" +
                                             tenant.name + "' duration must be > 0");
    const auto config = workload::config_for_offered_load(
        system.eet, machine_types, tenant.rho, tenant.duration, tenant.seed);
    const workload::Workload part = workload::generate_workload(system.eet, config);
    merged.reserve(merged.size() + part.size());
    for (workload::TaskDef def : part.tasks()) {
      def.tenant = static_cast<std::uint32_t>(i);
      merged.push_back(def);
    }
  }
  // Merge by (arrival, tenant, per-tenant id) — a total order independent of
  // per-tenant trace sizes — then renumber dense so index == id inside the
  // simulation (the fast task_index path).
  std::stable_sort(merged.begin(), merged.end(),
                   [](const workload::TaskDef& a, const workload::TaskDef& b) {
                     if (a.arrival != b.arrival) return a.arrival < b.arrival;
                     if (a.tenant != b.tenant) return a.tenant < b.tenant;
                     return a.id < b.id;
                   });
  for (std::size_t j = 0; j < merged.size(); ++j) {
    merged[j].id = static_cast<workload::TaskId>(j);
  }
  return workload::Workload(std::move(merged));
}

std::vector<std::string> tenant_names(const std::vector<TenantSpec>& tenants) {
  std::vector<std::string> names;
  names.reserve(tenants.size());
  for (const TenantSpec& tenant : tenants) names.push_back(tenant.name);
  return names;
}

std::vector<TenantOutcome> tenant_outcomes(const sched::Simulation& simulation) {
  const std::vector<std::string>& names = simulation.tenant_names();
  const workload::TaskStateSoA& state = simulation.task_state();
  std::size_t count = names.size();
  for (std::size_t i = 0; i < state.size(); ++i) {
    count = std::max(count, static_cast<std::size_t>(state.tenant(i)) + 1);
  }
  std::vector<TenantOutcome> outcomes(std::max<std::size_t>(count, 1));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].name = i < names.size() ? names[i] : "tenant" + std::to_string(i);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    TenantOutcome& outcome = outcomes[state.tenant(i)];
    // Replica clones fold into their tenant's waste but are not submissions.
    const bool is_clone =
        state.has_replica_column() && state.replica_of[i] != workload::kNoTaskId;
    if (!is_clone) ++outcome.tasks;
    if (state.completed(i)) ++outcome.completed;
    outcome.useful_seconds += state.useful_seconds[i];
    outcome.lost_seconds += state.lost_seconds(i);
    outcome.checkpoint_overhead_seconds += state.checkpoint_overhead_seconds(i);
    outcome.machine_seconds += state.machine_seconds[i];
    if (state.has_checkpoint_column()) outcome.checkpoints += state.checkpoint_times[i].size();
  }
  return outcomes;
}

std::vector<std::vector<std::string>> tenant_report_rows(
    const sched::Simulation& simulation) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"tenant", "tasks", "completed", "useful_s", "lost_s",
                  "checkpoint_overhead_s", "waste_s", "machine_s", "checkpoints"});
  for (const TenantOutcome& tenant : tenant_outcomes(simulation)) {
    rows.push_back({tenant.name, std::to_string(tenant.tasks),
                    std::to_string(tenant.completed),
                    util::format_fixed(tenant.useful_seconds, 3),
                    util::format_fixed(tenant.lost_seconds, 3),
                    util::format_fixed(tenant.checkpoint_overhead_seconds, 3),
                    util::format_fixed(tenant.waste_seconds(), 3),
                    util::format_fixed(tenant.machine_seconds, 3),
                    std::to_string(tenant.checkpoints)});
  }
  return rows;
}

}  // namespace e2c::exp
