// Shared helpers for policy/simulation tests.
#pragma once

#include <vector>

#include "hetero/eet_matrix.hpp"
#include "hetero/pet_matrix.hpp"
#include "sched/policy.hpp"
#include "support/owned_queue.hpp"
#include "workload/task.hpp"

namespace e2c::test {

/// A task present in the batch queue at time zero.
inline workload::TaskDef queued_task(workload::TaskId id, hetero::TaskTypeId type,
                                     double deadline = 1e9, double arrival = 0.0) {
  workload::TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

/// A scheduling context at time 0 over copies of the \p queue tasks, in that
/// order. The queue base is built before the context base and destroyed
/// after it, and the object can be neither copied nor moved, so the context
/// never outlives its queue.
class QueuedContext : private OwnedQueue, public sched::SchedulingContext {
 public:
  QueuedContext(const hetero::EetMatrix& eet, const std::vector<const workload::TaskDef*>& queue,
                std::vector<sched::MachineView> machines, std::vector<double> ontime_rates = {},
                const hetero::PetMatrix* pet = nullptr)
      : OwnedQueue(eet, copies(queue)),
        SchedulingContext(0.0, eet, std::move(machines), index(), std::move(ontime_rates),
                          pet) {}

 private:
  static std::vector<workload::TaskDef> copies(
      const std::vector<const workload::TaskDef*>& queue) {
    std::vector<workload::TaskDef> tasks;
    for (const workload::TaskDef* task : queue) tasks.push_back(*task);
    return tasks;
  }
};

/// Builds a context of idle machines (one per EET machine type, machine id ==
/// type id) with \p free_slots each, ready at \p ready_times (zeros if empty).
inline QueuedContext make_context(const hetero::EetMatrix& eet,
                                  const std::vector<const workload::TaskDef*>& queue,
                                  std::size_t free_slots = sched::kUnlimitedSlots,
                                  std::vector<double> ready_times = {},
                                  std::vector<double> ontime_rates = {}) {
  std::vector<sched::MachineView> machines;
  for (std::size_t m = 0; m < eet.machine_type_count(); ++m) {
    sched::MachineView view;
    view.id = m;
    view.type = m;
    view.ready_time = m < ready_times.size() ? ready_times[m] : 0.0;
    view.free_slots = free_slots;
    view.idle_watts = 10.0;
    view.busy_watts = 100.0;
    machines.push_back(view);
  }
  return QueuedContext(eet, queue, std::move(machines), std::move(ontime_rates));
}

}  // namespace e2c::test
