#include "sched/batch.hpp"

#include <limits>

namespace e2c::sched {

namespace {

/// Sentinel for a stale per-type cache entry (distinct from machines.size(),
/// which a refresh produces when no machine has a free slot).
constexpr std::size_t kStale = std::numeric_limits<std::size_t>::max();
/// Transient mark of a queued type not yet listed in live_types.
constexpr std::size_t kUnlisted = kStale - 1;

/// Iterative batch mapper shared by MM/MMU/MSD. \p key computes the
/// selection score of a task given its best completion time; the task with
/// the smallest score is mapped each round (ties break to the earlier
/// arrival, which is the batch-queue order). Tasks whose best-case
/// completion already misses their deadline are deferred (see batch.hpp):
/// without that, MMU inverts at high load, because the most-negative-slack
/// (already doomed) tasks count as "most urgent" and starve feasible ones.
///
/// The mapper is incremental, and decision-equivalent to the full rescan
/// (every round, every pending task against every machine) that the tests
/// keep as their oracle (tests/support/reference_mappers.cpp). The best
/// (machine, completion) pair of a task is a function of its *type* alone —
/// every task of a type shares one EET row — so the argmin over machines is
/// cached per type. After a commit only the committed machine's
/// projection changed, and it changed for the worse (ready_time grew, a slot
/// was consumed), so a cached pair on any *other* machine is still the
/// argmin; only types cached on the committed machine re-scan the machines.
/// Tasks whose best-case completion misses their deadline are skip-marked
/// permanently: their best completion is monotone non-decreasing within an
/// invocation (ready times only grow, the slot set only shrinks), so the
/// rescan would re-reject them every round anyway.
///
/// The per-type tables are sized to the catalog but touched only for the
/// queued (live) types: those are listed from the queue and marked stale on
/// entry, and are the only ones invalidated after a commit. Entries of
/// other types may hold values from earlier invocations; they are never
/// read, because only queued tasks' types are looked up.
///
/// Per invocation: O(live types x machines) refreshes amortized over rounds
/// plus an O(pending + live types) scan per round, however large the
/// catalog, vs the rescan's O(pending x machines) per round.
template <typename Key>
void iterative_map(SchedulingContext& context, Key key, BatchMapperScratch& scratch,
                   std::vector<Assignment>& assignments) {
  assignments.clear();
  const auto& queue = context.batch_queue();
  const auto& machines = context.machines();
  const std::size_t task_count = queue.size();
  const std::size_t machine_count = machines.size();
  const std::size_t type_count = context.eet().task_type_count();

  scratch.state.assign(task_count, MapSlot::kActive);
  scratch.type_machine.resize(type_count);
  scratch.type_completion.resize(type_count);
  // List each queued type once, marking it stale: O(pending), like the
  // state reset above, and no index of the queue is built.
  std::vector<hetero::TaskTypeId>& live_types = scratch.live_types;
  live_types.clear();
  for (const workload::TaskDef* task : queue) scratch.type_machine[task->type] = kUnlisted;
  for (const workload::TaskDef* task : queue) {
    if (scratch.type_machine[task->type] != kUnlisted) continue;
    scratch.type_machine[task->type] = kStale;
    live_types.push_back(task->type);
  }
  std::size_t active = task_count;

  const auto refresh_type = [&](hetero::TaskTypeId type) {
    const std::span<const double> row = context.eet_row(type);
    std::size_t best = machine_count;
    double best_completion = 0.0;
    for (std::size_t j = 0; j < machine_count; ++j) {
      if (machines[j].free_slots == 0) continue;
      const double completion = machines[j].ready_time + row[machines[j].type];
      if (best == machine_count || completion < best_completion) {
        best = j;
        best_completion = completion;
      }
    }
    scratch.type_machine[type] = best;
    scratch.type_completion[type] = best_completion;
  };

  while (active > 0) {
    std::size_t best_task = task_count;
    std::size_t best_machine = machine_count;
    double best_key = 0.0;

    for (std::size_t i = 0; i < task_count; ++i) {
      if (scratch.state[i] != MapSlot::kActive) continue;
      const workload::TaskDef& task = *queue[i];
      if (scratch.type_machine[task.type] == kStale) refresh_type(task.type);
      const std::size_t machine_index = scratch.type_machine[task.type];
      if (machine_index >= machine_count) continue;  // no slot anywhere
      const double completion = scratch.type_completion[task.type];
      if (completion > task.deadline) {  // infeasible: defer (prune)
        scratch.state[i] = MapSlot::kDeferred;
        --active;
        continue;
      }
      const double k = key(task, completion);
      if (best_task == task_count || k < best_key) {
        best_task = i;
        best_machine = machine_index;
        best_key = k;
      }
    }
    if (best_task == task_count) break;  // saturated or only infeasible left

    const workload::TaskDef& task = *queue[best_task];
    assignments.push_back(Assignment{task.id, machines[best_machine].id});
    context.commit(task, best_machine);
    scratch.state[best_task] = MapSlot::kCommitted;
    --active;
    // Only the committed machine's projection changed (and only for the
    // worse), so caches pointing elsewhere stay valid.
    for (const hetero::TaskTypeId t : live_types) {
      if (scratch.type_machine[t] == best_machine) scratch.type_machine[t] = kStale;
    }
  }
}

}  // namespace

void MinMinPolicy::schedule_into(SchedulingContext& context, std::vector<Assignment>& out) {
  iterative_map(
      context, [](const workload::TaskDef&, core::SimTime completion) { return completion; },
      scratch_, out);
}

void MaxUrgencyPolicy::schedule_into(SchedulingContext& context,
                                     std::vector<Assignment>& out) {
  // Smallest slack first == max urgency.
  iterative_map(
      context,
      [](const workload::TaskDef& task, core::SimTime completion) {
        return task.deadline - completion;
      },
      scratch_, out);
}

void SoonestDeadlinePolicy::schedule_into(SchedulingContext& context,
                                          std::vector<Assignment>& out) {
  iterative_map(
      context, [](const workload::TaskDef& task, core::SimTime) { return task.deadline; },
      scratch_, out);
}

}  // namespace e2c::sched
