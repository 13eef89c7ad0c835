/// \file task_state.hpp
/// \brief Structure-of-arrays per-run task state, owned by the Simulation.
///
/// The mutable execution record that used to live inside a per-task struct
/// (status, assigned machine, three timestamps, waste accumulators) is stored
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
/// A terminal row has exactly one end instant: the completion when the
/// status is kCompleted, the miss (cancel, drop, failure, replica cancel)
/// otherwise. One `end_time` column holds it, set by finish() together with
/// the status; completion_time(i) and missed_time(i) read it back per kind.
///
/// The `retries`, `replica_of`, checkpoint (`checkpoint_times`,
/// `completed_fraction`, checkpoint overhead) columns are lazy: empty unless
/// the run injects faults / replicates / checkpoints, so the common path
/// never allocates them. Only a fault run requeues a task, and only a
/// checkpoint run pays checkpoint overhead or resumes from a fraction other
/// than 0. The lost-work column is lazy too, but keyed on an event instead of
/// a feature: any run may drop a running task at its deadline, so the column
/// is sized on the first aborted run (add_lost_seconds) and a run that never
/// aborts one never allocates it. The retry count, the overhead and the lost
/// work are private behind accessors that read 0 when their column is absent,
/// so the reports and the run-digest goldens read them per task on every run
/// without indexing an empty vector.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/sim_time.hpp"
#include "hetero/types.hpp"
#include "util/large_buffer.hpp"
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
  /// Completion or miss instant; kTimeUnset until the task is terminal.
  std::vector<core::SimTime> end_time;

  // --- recovery record ---
  // The waste decomposition the reports export: for every machine the task
  // touched, useful + lost + checkpoint_overhead == machine_seconds.
  std::vector<double> useful_seconds;
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
  /// Lazy columns are dropped; callers re-enable the ones they use. A
  /// column that has to grow is reserved on huge pages (util/large_buffer)
  /// before its first write; one that is large enough keeps its buffer.
  void reset() {
    const std::size_t n = defs.size();
    const auto refill = [n](auto& column, auto value) {
      column.clear();
      util::reserve_large(column, n);
      column.assign(n, value);
    };
    refill(status, TaskStatus::kPending);
    refill(machine, kNoMachine);
    refill(assignment_time, core::kTimeUnset);
    refill(start_time, core::kTimeUnset);
    refill(end_time, core::kTimeUnset);
    refill(useful_seconds, 0.0);
    refill(machine_seconds, 0.0);
    lost_seconds_.clear();
    retries_.clear();
    replica_of.clear();
    checkpoint_times.clear();
    completed_fraction.clear();
    checkpoint_overhead_.clear();
  }

  /// Sizes the retries column (all 0). Called once per run when the run
  /// injects faults, the only way a task is requeued.
  void enable_retry_column() { retries_.assign(size(), 0); }

  /// Sizes the replica_of column (all kNoTaskId). Called once per run when
  /// the replicate strategy is active.
  void enable_replica_column() { replica_of.assign(size(), kNoTaskId); }

  /// Sizes the checkpoint columns (checkpoint_times empty, completed_fraction
  /// and overhead 0). Called once per run when the checkpoint strategy is
  /// active.
  void enable_checkpoint_column() {
    checkpoint_times.assign(size(), {});
    completed_fraction.assign(size(), 0.0);
    checkpoint_overhead_.assign(size(), 0.0);
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

  /// Ends the task: sets its terminal \p status and the instant it ended.
  void finish(std::size_t i, TaskStatus terminal, core::SimTime now) noexcept {
    status[i] = terminal;
    end_time[i] = now;
  }

  /// Completion instant; kTimeUnset unless the task completed.
  [[nodiscard]] core::SimTime completion_time(std::size_t i) const noexcept {
    return completed(i) ? end_time[i] : core::kTimeUnset;
  }

  /// Instant the task was cancelled, dropped, failed or replica-cancelled;
  /// kTimeUnset unless it ended that way.
  [[nodiscard]] core::SimTime missed_time(std::size_t i) const noexcept {
    return completed(i) ? core::kTimeUnset : end_time[i];
  }

  /// Requeues after machine failures; 0 when the run injects no faults.
  [[nodiscard]] std::uint32_t retries(std::size_t i) const noexcept {
    return retries_.empty() ? 0 : retries_[i];
  }

  /// Counts one more requeue of row \p i and returns the new count. Needs
  /// enable_retry_column().
  std::uint32_t add_retry(std::size_t i) noexcept { return ++retries_[i]; }

  /// Seconds spent writing checkpoints and loading restarts; 0 when the run
  /// does not checkpoint.
  [[nodiscard]] double checkpoint_overhead_seconds(std::size_t i) const noexcept {
    return checkpoint_overhead_.empty() ? 0.0 : checkpoint_overhead_[i];
  }

  /// Charges \p seconds of checkpoint overhead to row \p i. Needs
  /// enable_checkpoint_column().
  void add_checkpoint_overhead(std::size_t i, double seconds) noexcept {
    checkpoint_overhead_[i] += seconds;
  }

  /// Work executed and then lost to a crash, a deadline drop of a running
  /// task or a replica cancel; 0 when the run never aborted a running task.
  [[nodiscard]] double lost_seconds(std::size_t i) const noexcept {
    return lost_seconds_.empty() ? 0.0 : lost_seconds_[i];
  }

  /// Charges \p seconds of lost work to row \p i, sizing the column (all 0)
  /// on the run's first call.
  void add_lost_seconds(std::size_t i, double seconds) {
    if (lost_seconds_.empty()) lost_seconds_.assign(size(), 0.0);
    lost_seconds_[i] += seconds;
  }

  /// Capacity of the lazy retries, checkpoint-overhead and lost-work columns:
  /// 0 on a run that injects no faults, does not checkpoint and aborts no
  /// running task, respectively.
  [[nodiscard]] std::size_t retry_capacity() const noexcept { return retries_.capacity(); }
  [[nodiscard]] std::size_t checkpoint_overhead_capacity() const noexcept {
    return checkpoint_overhead_.capacity();
  }
  [[nodiscard]] std::size_t lost_seconds_capacity() const noexcept {
    return lost_seconds_.capacity();
  }

  /// Response time (completion - arrival); kTimeUnset when not completed.
  [[nodiscard]] core::SimTime response_time(std::size_t i) const noexcept {
    const core::SimTime t = completion_time(i);
    return core::time_set(t) ? t - defs[i].arrival : core::kTimeUnset;
  }

  /// Waiting time before execution started; kTimeUnset when never started.
  [[nodiscard]] core::SimTime wait_time(std::size_t i) const noexcept {
    const core::SimTime t = start_time[i];
    return core::time_set(t) ? t - defs[i].arrival : core::kTimeUnset;
  }

 private:
  std::vector<TaskDef> owned_;  ///< backing storage when adopt() was used
  std::vector<double> lost_seconds_;  ///< lazy: sized by the first add_lost_seconds()
  std::vector<std::uint32_t> retries_;  ///< lazy: sized by enable_retry_column()
  std::vector<double> checkpoint_overhead_;  ///< lazy: sized with the checkpoint columns
};

}  // namespace e2c::workload
