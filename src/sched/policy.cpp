#include "sched/policy.hpp"

namespace e2c::sched {

namespace {

template <typename Score>
std::size_t argmin_with_space(const SchedulingContext& context, Score score) {
  const auto& machines = context.machines();
  std::size_t best = machines.size();
  double best_score = 0.0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].free_slots == 0) continue;
    const double s = score(machines[i]);
    if (best == machines.size() || s < best_score) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

}  // namespace

std::size_t argmin_completion(const SchedulingContext& context, const workload::TaskDef& task) {
  // Hand-rolled over the task's EET row: one contiguous read per machine
  // instead of a per-cell accessor call. Same strict-< / lower-index
  // tie-break as argmin_with_space.
  const auto& machines = context.machines();
  const std::span<const double> row = context.eet_row(task.type);
  std::size_t best = machines.size();
  double best_completion = 0.0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].free_slots == 0) continue;
    const double completion = machines[i].ready_time + row[machines[i].type];
    if (best == machines.size() || completion < best_completion) {
      best = i;
      best_completion = completion;
    }
  }
  return best;
}

std::size_t argmin_exec(const SchedulingContext& context, const workload::TaskDef& task) {
  // Ties on raw EET are broken by current load (ready time): on a
  // homogeneous system every machine ties, and without this MEET would herd
  // every task onto machine 0 while the rest sit idle. With the load
  // tie-break MEET degenerates to least-loaded there, and is unchanged on
  // heterogeneous systems where EETs differ.
  const auto& machines = context.machines();
  const std::span<const double> row = context.eet_row(task.type);
  std::size_t best = machines.size();
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].free_slots == 0) continue;
    if (best == machines.size()) {
      best = i;
      continue;
    }
    const double exec_i = row[machines[i].type];
    const double exec_b = row[machines[best].type];
    if (exec_i < exec_b ||
        (exec_i == exec_b && machines[i].ready_time < machines[best].ready_time)) {
      best = i;
    }
  }
  return best;
}

std::size_t argmin_ready(const SchedulingContext& context) {
  return argmin_with_space(context, [](const MachineView& m) { return m.ready_time; });
}

}  // namespace e2c::sched
