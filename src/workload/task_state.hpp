/// \file task_state.hpp
/// \brief Structure-of-arrays per-run task state, owned by the Simulation.
///
/// The mutable execution record that used to live inside a per-task struct
/// (status, assigned machine, four timestamps, waste accumulators) is stored
/// here as parallel dense vectors indexed by task row. The scheduler round,
/// the terminal-transition bookkeeping and the report generators walk
/// contiguous columns instead of striding over ~200-byte task objects, and
/// each timestamp is one double (kTimeUnset sentinel) instead of a
/// std::optional's value + engaged flag + padding.
///
/// The immutable task definitions are NOT copied in: `defs` is a span
/// aliasing the (possibly shared, read-only) workload trace. When a run
/// needs its own definitions — replication clones tasks, the multi-tenant
/// merger rewrites tenants — adopt() takes ownership of a private vector and
/// the span aliases that instead.
///
/// Sentinels (one convention across columns, reports and the digest tests):
///  - timestamps:  core::kTimeUnset (-inf; real instants are always >= 0)
///  - machine:     kNoMachine
///  - replica_of:  kNoTaskId
///
/// The `replica_of`, `checkpoint_times` and `completed_fraction` columns
/// are lazy: empty unless the run uses replication / checkpointing, so the
/// common path never touches (or allocates) them. Without checkpoints a
/// task always starts from fraction 0, which is all `completed_fraction`
/// would record. `retries`, `lost_seconds` and `checkpoint_overhead_seconds`
/// stay dense even though only fault runs move them off zero: the reports
/// and the run-digest goldens read them per task on every run.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/sim_time.hpp"
#include "hetero/types.hpp"
#include "workload/task.hpp"

namespace e2c::workload {

/// Column value meaning "not mapped to any machine".
inline constexpr std::uint32_t kNoMachine = 0xFFFFFFFFu;

/// Column value meaning "not a replica" in the replica_of column.
inline constexpr TaskId kNoTaskId = ~TaskId{0};

/// Parallel dense vectors holding the mutable per-run state of every task,
/// plus a non-owning view of the immutable definitions.
struct TaskStateSoA {
  // --- immutable definitions (aliased, never mutated) ---
  std::span<const TaskDef> defs;

  // --- simulation record, one entry per task row ---
  std::vector<TaskStatus> status;
  std::vector<std::uint32_t> machine;           ///< kNoMachine until mapped
  std::vector<core::SimTime> assignment_time;   ///< kTimeUnset until mapped
  std::vector<core::SimTime> start_time;        ///< kTimeUnset until execution starts
  std::vector<core::SimTime> completion_time;   ///< kTimeUnset unless completed
  std::vector<core::SimTime> missed_time;       ///< kTimeUnset unless cancelled/dropped/failed
  std::vector<std::uint32_t> retries;           ///< requeues after machine failures

  // --- recovery record ---
  // The waste decomposition the reports export: for every machine the task
  // touched, useful + lost + checkpoint_overhead == machine_seconds.
  std::vector<double> useful_seconds;
  std::vector<double> lost_seconds;
  std::vector<double> checkpoint_overhead_seconds;
  std::vector<double> machine_seconds;

  // --- lazy columns (empty unless the feature is active) ---
  std::vector<TaskId> replica_of;  ///< primary's id, kNoTaskId for non-replicas
  std::vector<std::vector<core::SimTime>> checkpoint_times;  ///< commit instants
  /// Committed work fraction a restart resumes from (sized with checkpoint_times).
  std::vector<double> completed_fraction;

  /// Number of task rows.
  [[nodiscard]] std::size_t size() const noexcept { return status.size(); }

  /// Points the definitions at a shared read-only trace (no copy) and
  /// (re)initializes every mutable column.
  void bind(std::span<const TaskDef> trace) {
    owned_.clear();
    owned_.shrink_to_fit();
    defs = trace;
    reset();
  }

  /// Takes ownership of run-private definitions (replication clones,
  /// tenant-rewritten merges) and (re)initializes every mutable column.
  void adopt(std::vector<TaskDef> trace) {
    owned_ = std::move(trace);
    defs = owned_;
    reset();
  }

  /// Refills every mutable column with its initial value, sized to defs.
  /// Lazy columns are dropped; callers re-enable the ones they use.
  void reset() {
    const std::size_t n = defs.size();
    status.assign(n, TaskStatus::kPending);
    machine.assign(n, kNoMachine);
    assignment_time.assign(n, core::kTimeUnset);
    start_time.assign(n, core::kTimeUnset);
    completion_time.assign(n, core::kTimeUnset);
    missed_time.assign(n, core::kTimeUnset);
    retries.assign(n, 0);
    useful_seconds.assign(n, 0.0);
    lost_seconds.assign(n, 0.0);
    checkpoint_overhead_seconds.assign(n, 0.0);
    machine_seconds.assign(n, 0.0);
    replica_of.clear();
    checkpoint_times.clear();
    completed_fraction.clear();
  }

  /// Sizes the replica_of column (all kNoTaskId). Called once per run when
  /// the replicate strategy is active.
  void enable_replica_column() { replica_of.assign(size(), kNoTaskId); }

  /// Sizes the checkpoint columns (checkpoint_times empty, completed_fraction
  /// 0). Called once per run when the checkpoint strategy is active.
  void enable_checkpoint_column() {
    checkpoint_times.assign(size(), {});
    completed_fraction.assign(size(), 0.0);
  }

  [[nodiscard]] bool has_replica_column() const noexcept { return !replica_of.empty(); }
  [[nodiscard]] bool has_checkpoint_column() const noexcept {
    return !checkpoint_times.empty();
  }

  // --- row helpers over the immutable definitions ---
  [[nodiscard]] const TaskDef& def(std::size_t i) const noexcept { return defs[i]; }
  [[nodiscard]] TaskId id(std::size_t i) const noexcept { return defs[i].id; }
  [[nodiscard]] hetero::TaskTypeId type(std::size_t i) const noexcept {
    return defs[i].type;
  }
  [[nodiscard]] core::SimTime arrival(std::size_t i) const noexcept {
    return defs[i].arrival;
  }
  [[nodiscard]] core::SimTime deadline(std::size_t i) const noexcept {
    return defs[i].deadline;
  }
  [[nodiscard]] std::uint32_t tenant(std::size_t i) const noexcept {
    return defs[i].tenant;
  }

  // --- row helpers over the mutable record ---
  /// True once the task reached a terminal state.
  [[nodiscard]] bool finished(std::size_t i) const noexcept {
    return is_terminal(status[i]);
  }

  /// True if the task completed on time.
  [[nodiscard]] bool completed(std::size_t i) const noexcept {
    return status[i] == TaskStatus::kCompleted;
  }

  /// Response time (completion - arrival); kTimeUnset when not completed.
  [[nodiscard]] core::SimTime response_time(std::size_t i) const noexcept {
    const core::SimTime t = completion_time[i];
    return core::time_set(t) ? t - defs[i].arrival : core::kTimeUnset;
  }

  /// Waiting time before execution started; kTimeUnset when never started.
  [[nodiscard]] core::SimTime wait_time(std::size_t i) const noexcept {
    const core::SimTime t = start_time[i];
    return core::time_set(t) ? t - defs[i].arrival : core::kTimeUnset;
  }

 private:
  std::vector<TaskDef> owned_;  ///< backing storage when adopt() was used
};

}  // namespace e2c::workload
