/// \file policy.hpp
/// \brief The pluggable scheduling-policy interface.
///
/// E2C's modularity promise (§3: "providing the ability for the user to
/// modify the existing scheduling methods or adding their own
/// custom-designed scheduling methods") maps to this interface plus the
/// registry in registry.hpp. A policy sees a snapshot of the system (batch
/// queue + projected machine states) and returns the mappings it wants; the
/// simulation applies them. Policies never touch engine internals, so a
/// student's policy cannot corrupt the simulation.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/sim_time.hpp"
#include "hetero/eet_matrix.hpp"
#include "hetero/pet_matrix.hpp"
#include "sched/task_index_queue.hpp"
#include "workload/task.hpp"

namespace e2c::sched {

/// One mapping decision: put task onto machine.
struct Assignment {
  workload::TaskId task = 0;
  hetero::MachineId machine = 0;
};

/// Snapshot of one machine as the policy sees it. ready_time and free_slots
/// are *projections*: helper methods update them as the policy commits
/// assignments inside a single scheduler invocation, so multi-task batch
/// policies account for their own earlier picks.
struct MachineView {
  hetero::MachineId id = 0;
  hetero::MachineTypeId type = 0;
  core::SimTime ready_time = 0.0;
  /// Remaining queue slots; kUnlimitedSlots when the queue is unbounded.
  std::size_t free_slots = 0;
  double idle_watts = 0.0;
  double busy_watts = 0.0;
  /// Observed availability in [0, 1]: fraction of elapsed simulated time the
  /// machine was not failed. 1.0 without fault injection. Fault-aware
  /// policies (FTMIN-EET) discount flaky machines by this.
  double availability = 1.0;
};

/// Sentinel for unbounded machine queues.
inline constexpr std::size_t kUnlimitedSlots = std::numeric_limits<std::size_t>::max();

/// Everything a policy may consult while deciding. The context is a
/// per-invocation copy of the machine views: policies are free to mutate
/// them through commit() and to reorder/filter their own working copies of
/// the queue.
///
/// The batch queue is offered two ways. batch_queue() is the arrival-ordered
/// vector every policy can walk; batch_index() is the per-type index (task
/// counts per type, each type's tasks in arrival order, sequence numbers
/// ordering tasks across types) for mappers whose scores depend only on the
/// task type. Both read one TaskIndexQueue, which builds the vector only if
/// a policy asks for it.
class SchedulingContext {
 public:
  /// Context over a batch-queue index, which must outlive the context and
  /// stay unchanged while it is in use. Nothing is copied.
  SchedulingContext(core::SimTime now, const hetero::EetMatrix& eet,
                    std::vector<MachineView> machines, const TaskIndexQueue& batch_index,
                    std::vector<double> type_ontime_rate,
                    const hetero::PetMatrix* pet = nullptr)
      : now_(now),
        eet_(&eet),
        pet_(pet),
        machines_(std::move(machines)),
        index_(&batch_index),
        type_ontime_rate_(std::move(type_ontime_rate)) {}

  /// Current simulated time.
  [[nodiscard]] core::SimTime now() const noexcept { return now_; }

  /// The system's EET matrix.
  [[nodiscard]] const hetero::EetMatrix& eet() const noexcept { return *eet_; }

  /// Machine snapshots (projected; see commit()).
  [[nodiscard]] const std::vector<MachineView>& machines() const noexcept {
    return machines_;
  }

  /// Unmapped tasks in arrival order (the batch queue of Fig. 1).
  [[nodiscard]] const std::vector<const workload::TaskDef*>& batch_queue() const {
    return index_->ordered();
  }

  /// The same tasks as batch_queue(), indexed by task type (see
  /// TaskIndexQueue): a type's tasks in arrival order, sequence numbers
  /// ordering tasks across types.
  [[nodiscard]] const TaskIndexQueue& batch_index() const noexcept { return *index_; }

  /// Expected execution time of \p task on machine view \p m. Machine views
  /// and task records are validated against the EET shape at construction,
  /// so this takes the unchecked inline path.
  [[nodiscard]] double exec_time(const workload::TaskDef& task, const MachineView& m) const {
    return eet_->eet_unchecked(task.type, m.type);
  }

  /// The EET row of a task type (indexed by MachineView::type), for mappers
  /// that scan all machines for one task without per-cell accessor calls.
  [[nodiscard]] std::span<const double> eet_row(hetero::TaskTypeId type) const noexcept {
    return eet_->row(type);
  }

  /// Projected completion time of \p task on machine view \p m.
  [[nodiscard]] core::SimTime completion_time(const workload::TaskDef& task,
                                              const MachineView& m) const {
    return m.ready_time + exec_time(task, m);
  }

  /// Standard deviation of the execution time of \p task on machine view
  /// \p m under the system's PET model; 0 when the system is deterministic
  /// (no PET configured). Probabilistic policies (PAM) use this to assess
  /// deadline risk.
  [[nodiscard]] double exec_stddev(const workload::TaskDef& task, const MachineView& m) const {
    return pet_ ? pet_->cell(task.type, m.type).stddev() : 0.0;
  }

  /// True when the system runs with stochastic execution times.
  [[nodiscard]] bool stochastic() const noexcept { return pet_ != nullptr; }

  /// Projected energy (J) to execute \p task on \p m: exec * busy_watts.
  /// The two-state power model attributes idle power to the machine, not the
  /// task, so the marginal task energy is the busy-power integral.
  [[nodiscard]] double exec_energy(const workload::TaskDef& task, const MachineView& m) const {
    return exec_time(task, m) * m.busy_watts;
  }

  /// On-time completion rate observed so far for a task type (1.0 before any
  /// task of the type finished). Fairness-oriented policies (FELARE, custom
  /// assignments) use this to find suffering task types.
  [[nodiscard]] double type_ontime_rate(hetero::TaskTypeId type) const {
    return type < type_ontime_rate_.size() ? type_ontime_rate_[type] : 1.0;
  }

  /// Records an assignment into the projection: advances the machine's
  /// ready_time by the task's execution time and consumes one queue slot.
  /// Policies call this after each pick so later picks see the load.
  void commit(const workload::TaskDef& task, std::size_t machine_index) {
    MachineView& m = machines_.at(machine_index);
    m.ready_time += exec_time(task, m);
    if (m.free_slots != kUnlimitedSlots && m.free_slots > 0) --m.free_slots;
  }

  /// Hands the context's buffers back to the caller after schedule() so a
  /// per-round driver (Simulation::run_scheduler) can recycle their capacity
  /// instead of reallocating two vectors on every scheduler invocation.
  /// The context must not be used afterwards.
  void release_buffers(std::vector<MachineView>& machines,
                       std::vector<double>& type_ontime_rate) noexcept {
    machines = std::move(machines_);
    type_ontime_rate = std::move(type_ontime_rate_);
  }

 private:
  core::SimTime now_;
  const hetero::EetMatrix* eet_;
  const hetero::PetMatrix* pet_ = nullptr;
  std::vector<MachineView> machines_;
  const TaskIndexQueue* index_;
  std::vector<double> type_ontime_rate_;
};

/// Scheduling mode, mirroring the GUI's immediate/batch selector (Fig. 3).
enum class PolicyMode { kImmediate, kBatch };

/// Base class for all scheduling policies.
///
/// Two contracts hold for every policy:
///  - schedule_into() runs only when at least one machine view has a free
///    slot (see schedule_into below); a round where none has one is counted
///    in Simulation::scheduler_invocations() without calling the policy.
///  - Score hooks that subclasses override to reshape a built-in mapper are
///    per task type, not per task: ElarePolicy::fairness_factor(context,
///    type) is evaluated once per type per invocation, because the fast
///    mapper scores (type, machine) pairs and never single tasks.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Registry name, e.g. "MECT".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Immediate policies run with unbounded machine queues; batch policies
  /// respect the configured queue size.
  [[nodiscard]] virtual PolicyMode mode() const = 0;

  /// Decides mappings for the current invocation, appended to \p out (which
  /// is cleared first). The assignments are applied in order; each must
  /// reference a task from the batch queue and a machine with a free
  /// (projected) slot. Tasks not assigned stay in the batch queue for the
  /// next invocation (or cancellation).
  ///
  /// The simulation calls this only when the batch queue is non-empty and at
  /// least one machine view has a free slot. A round in which every machine
  /// is full (or offline) still counts as a scheduler invocation, but the
  /// policy is not called: it could not map anything, so a policy must not
  /// rely on being called to advance its own state.
  ///
  /// The out-parameter is the hot-path form: the simulation lends the same
  /// scratch vector to every invocation, so a steady-state scheduler round
  /// never touches the allocator. Tests and benches use the by-value form
  /// test::schedule(policy, context) in tests/support/schedule.hpp.
  virtual void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) = 0;
};

/// Shared helper: index of the machine view minimizing completion time for
/// \p task among views with a free slot; returns machines.size() when no
/// machine has space. Ties break to the lower machine id (deterministic).
[[nodiscard]] std::size_t argmin_completion(const SchedulingContext& context,
                                            const workload::TaskDef& task);

/// Shared helper: index of the machine view minimizing raw EET for \p task
/// among views with a free slot; machines.size() when none has space.
[[nodiscard]] std::size_t argmin_exec(const SchedulingContext& context,
                                      const workload::TaskDef& task);

/// Shared helper: index of the machine view with the earliest ready time
/// among views with a free slot; machines.size() when none has space.
[[nodiscard]] std::size_t argmin_ready(const SchedulingContext& context);

}  // namespace e2c::sched
