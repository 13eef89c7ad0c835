/// \file task.hpp
/// \brief The task model and its status lifecycle.
///
/// A task is one request for an application (task type). Its lifecycle
/// follows the paper's Figure 1 flow:
///
///   arrival -> batch queue -> (scheduler) -> machine queue -> running -> completed
///                 |                             |               |
///                 v                             v               v
///              CANCELLED                     DROPPED          DROPPED
///        (deadline before mapping)   (deadline in queue)  (deadline mid-run)
///
/// With fault injection enabled, a machine failure aborts mapped tasks into
/// RETRY_WAIT (backoff, then back to the batch queue) until the retry budget
/// is exhausted or the deadline passes, which ends in FAILED.
#pragma once

#include <cstdint>

#include "core/sim_time.hpp"
#include "hetero/types.hpp"

namespace e2c::workload {

/// Unique task identifier within one workload.
using TaskId = std::uint64_t;

/// Where a task currently is in its lifecycle.
enum class TaskStatus : std::uint8_t {
  kPending,        ///< generated, not yet arrived
  kInBatchQueue,   ///< arrived, waiting for the scheduler
  kTransferring,   ///< mapped, input payload in flight to the machine
  kInMachineQueue, ///< mapped, waiting in a machine's local queue
  kRunning,        ///< executing on a machine
  kRetryWait,      ///< aborted by a machine failure, waiting out the retry backoff
  kCompleted,      ///< finished before its deadline
  kCancelled,      ///< deadline passed while still unmapped (batch queue)
  kDropped,        ///< deadline passed after mapping (transfer, queue or run)
  kFailed,         ///< aborted by machine failure(s) and out of retries
  kReplicaCancelled, ///< replica sibling finished first; this copy was cancelled
};

/// Display name of a status ("completed", "cancelled", ...).
[[nodiscard]] const char* task_status_name(TaskStatus status) noexcept;

/// True for the terminal states (completed, cancelled, dropped, failed,
/// replica-cancelled).
[[nodiscard]] bool is_terminal(TaskStatus status) noexcept;

/// The immutable definition of one task, as it appears in the workload trace:
/// identity, application (task type — the EET row it executes at, and the key
/// the comm/memory models derive payload sizes and footprints from), arrival
/// and deadline. A Workload is a vector of these; it carries no per-run
/// state, so one trace can be shared read-only across concurrent runs.
///
/// The record is 32 bytes: the task type is stored as 32 bits next to the
/// tenant (no catalog comes near 2^32 types), so the two share one word and
/// no padding is left. A million-task trace is 32 MB.
struct TaskDef {
  TaskId id = 0;
  /// Task type as stored; read it as hetero::TaskTypeId (it widens losslessly).
  std::uint32_t type = 0;
  /// Owning tenant for multi-tenant runs (index into the experiment's tenant
  /// roster); 0 for single-tenant workloads. Carried through to the task
  /// record so waste decomposes per tenant.
  std::uint32_t tenant = 0;
  core::SimTime arrival = 0.0;
  core::SimTime deadline = core::kTimeInfinity;
};
static_assert(sizeof(TaskDef) == 32, "TaskDef is read per task by every run; keep it 32 B");

}  // namespace e2c::workload
