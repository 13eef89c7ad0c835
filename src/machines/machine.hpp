/// \file machine.hpp
/// \brief A simulated machine: bounded local queue, sequential executor,
/// two-state power model.
///
/// Per the paper (§3): "the task is appended to the local queue of the
/// assigned machine until the machine queue is saturated. Tasks are executed
/// on the assigned machine in a sequential manner... If a task missed its
/// deadline while executing on the machine, it is dropped from the machine."
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fault/io_channel.hpp"
#include "hetero/types.hpp"
#include "mem/model_cache.hpp"
#include "workload/task_state.hpp"

namespace e2c::machines {

/// Unbounded machine-queue capacity (immediate-mode scheduling uses this;
/// see the paper's Fig. 3: "machine queue size is limited to infinite for
/// immediate policies").
inline constexpr std::size_t kUnboundedQueue = 0;

/// Receives machine lifecycle callbacks. Implemented by the simulation layer
/// to update task records and re-invoke batch schedulers when a queue slot
/// frees up.
class MachineListener {
 public:
  virtual ~MachineListener() = default;

  /// A task finished executing (always before its deadline; the simulation
  /// drops tasks whose deadline fires first). \p task is the row index into
  /// the run's TaskStateSoA.
  virtual void on_task_completed(std::size_t task, hetero::MachineId machine) = 0;

  /// A task left the machine (completed or removed), freeing queue capacity.
  virtual void on_slot_freed(hetero::MachineId machine) = 0;
};

/// Power/availability state of a machine. Online and Offline are the
/// elasticity states (autoscaler); Failed is the fault-injection state — the
/// machine crashed, aborted its committed work, and is awaiting repair.
enum class MachineState : std::uint8_t { kOnline, kOffline, kFailed };

/// Display name of a machine state ("online", "offline", "failed").
[[nodiscard]] const char* machine_state_name(MachineState state) noexcept;

/// Checkpointing parameters shared by every machine of one simulation. The
/// machine interleaves work segments with checkpoint writes every \p interval
/// work-seconds (each costing \p cost wallclock seconds), and a task that
/// arrives with committed progress pays \p restart_cost once before resuming.
struct CheckpointSpec {
  double interval = 0.0;      ///< τ: work seconds between checkpoint writes
  double cost = 0.0;          ///< C: wallclock seconds per checkpoint write
  double restart_cost = 0.0;  ///< R: wallclock seconds to reload a checkpoint
};

/// One committed checkpoint, recorded for the Gantt chart's tick marks.
struct CheckpointMark {
  workload::TaskId task = 0;
  core::SimTime time = 0.0;
};

/// A closed or still-open failure interval; end is kTimeInfinity while the
/// machine is down. Consumed by the Gantt/availability reporting.
struct FailureSpan {
  core::SimTime start = 0.0;
  core::SimTime end = core::kTimeInfinity;
};

/// Accumulated activity/energy figures for one machine.
struct MachineStats {
  double busy_seconds = 0.0;       ///< total time spent executing
  double observed_seconds = 0.0;   ///< horizon used for energy/utilization
  std::size_t tasks_completed = 0; ///< tasks that ran to completion here
  std::size_t tasks_dropped = 0;   ///< tasks removed mid-queue or mid-run
  std::size_t tasks_aborted = 0;   ///< tasks evicted by machine failures
  std::size_t failures = 0;        ///< number of failure events

  /// Fraction of observed time spent executing (0 when nothing observed).
  [[nodiscard]] double utilization() const noexcept {
    return observed_seconds > 0.0 ? busy_seconds / observed_seconds : 0.0;
  }
};

/// A single machine instance bound to an engine.
///
/// The machine schedules its own completion events; removal (deadline drop)
/// cancels the in-flight completion. All operations are O(queue length) or
/// better. Not thread-safe (one engine per thread).
class Machine {
 public:
  /// \param queue_capacity maximum tasks waiting in the local queue, not
  ///        counting the running task; kUnboundedQueue means unlimited.
  Machine(core::Engine& engine, hetero::MachineId id, std::string name,
          hetero::MachineTypeId type, hetero::MachineTypeSpec power,
          std::size_t queue_capacity);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Registers the listener invoked on completions/slot releases.
  void set_listener(MachineListener* listener) noexcept { listener_ = listener; }

  /// Attaches the run's SoA task state. The machine reads/writes task rows
  /// (status, timestamps, waste accumulators) through this; enqueue()/
  /// remove()/fail() speak row indices into it. Not owned; must outlive the
  /// machine's activity.
  void set_task_state(workload::TaskStateSoA* state) noexcept { task_state_ = state; }

  /// Attaches a warm-model cache (Edge-MultiAI memory substrate). When set,
  /// each execution start consults the cache and a cold start extends the
  /// task's execution by the model-load penalty. Not owned; must outlive
  /// the machine's activity. Pass nullptr to detach.
  void set_model_cache(mem::ModelCache* cache) noexcept { model_cache_ = cache; }

  /// The attached warm-model cache, if any.
  [[nodiscard]] const mem::ModelCache* model_cache() const noexcept {
    return model_cache_;
  }

  /// Attaches the checkpoint/restart spec (recovery strategy "checkpoint").
  /// When set with interval > 0, executions interleave work segments with
  /// checkpoint writes and record committed progress on the task so a later
  /// run resumes instead of restarting from zero. Not owned; must outlive the
  /// machine's activity. Pass nullptr to disable (resubmit semantics). The
  /// task state must have its checkpoint columns enabled before the first
  /// commit (Simulation does so for every checkpoint run).
  void set_checkpoint_spec(const CheckpointSpec* spec) noexcept { checkpoint_ = spec; }

  /// Attaches the shared checkpoint-I/O channel. When set (alongside a
  /// checkpoint spec), checkpoint writes and restart reads become bandwidth-
  /// arbitrated transfers on the channel instead of fixed-cost events, so
  /// their wallclock stretches with contention. The overhead charged to the
  /// task is then the *elapsed* transfer time (including any cooperative
  /// admission wait), keeping the waste invariant exact. Not owned; must
  /// outlive the machine's activity. Pass nullptr to restore fixed costs.
  void set_io_channel(fault::IoChannel* channel) noexcept { io_channel_ = channel; }

  /// Committed checkpoints in commit order, for visualization.
  [[nodiscard]] const std::vector<CheckpointMark>& checkpoint_marks() const noexcept {
    return checkpoint_marks_;
  }

  /// Instance id within the system.
  [[nodiscard]] hetero::MachineId id() const noexcept { return id_; }

  /// Display name, e.g. "m1" or "gpu-0".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Machine type (EET column) of this instance.
  [[nodiscard]] hetero::MachineTypeId type() const noexcept { return type_; }

  /// Power model of this instance.
  [[nodiscard]] const hetero::MachineTypeSpec& power() const noexcept { return power_; }

  /// True when a task is currently executing.
  [[nodiscard]] bool busy() const noexcept { return running_.has_value(); }

  /// Current power/availability state. Machines start online.
  [[nodiscard]] MachineState state() const noexcept { return state_; }

  /// True when the machine is powered on (accepting work). Machines start
  /// online; the elasticity substrate (autoscaler) toggles this and a
  /// failure forces it false until repair.
  [[nodiscard]] bool online() const noexcept { return state_ == MachineState::kOnline; }

  /// True while the machine is down with an injected fault.
  [[nodiscard]] bool failed() const noexcept { return state_ == MachineState::kFailed; }

  /// Powers the machine on/off at simulated time \p now. Powering off does
  /// not abort the running task or drop queued ones — the machine *drains*
  /// (finishes its committed work) but accepts no new assignments; energy
  /// accounting charges idle power only while online. Requires \p now to be
  /// non-decreasing across calls. No-op while the machine is failed: only
  /// repair() can bring a crashed machine back.
  void set_online(bool online, core::SimTime now);

  /// Crashes the machine at \p now: the running task is aborted (its partial
  /// execution is charged to busy time/energy) and the local queue is
  /// flushed. Returns the evicted task rows, running task first, then queue
  /// order — the simulation layer decides whether each is retried. The
  /// machine draws no power until repair(). Requires the machine online.
  [[nodiscard]] std::vector<std::size_t> fail(core::SimTime now);

  /// Repairs a failed machine at \p now: it re-enters the online pool with
  /// an empty queue. Requires the machine failed.
  void repair(core::SimTime now);

  /// Failure intervals so far (last one open-ended while failed).
  [[nodiscard]] const std::vector<FailureSpan>& failure_spans() const noexcept {
    return failure_spans_;
  }

  /// Seconds spent failed over [0, horizon].
  [[nodiscard]] double failed_seconds(core::SimTime horizon) const;

  /// Observed availability over [0, horizon]: 1 - failed/horizon. 1.0 for a
  /// zero horizon or a machine that never failed. Fault-aware policies use
  /// this to discount flaky machines.
  [[nodiscard]] double availability(core::SimTime horizon) const;

  /// Seconds spent online over [0, horizon].
  [[nodiscard]] double online_seconds(core::SimTime horizon) const;

  /// Number of tasks waiting in the local queue (excluding the running one).
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }

  /// True if enqueue() would be accepted right now (requires the machine to
  /// be online and, for bounded queues, a free waiting slot).
  [[nodiscard]] bool has_queue_space() const noexcept;

  /// Earliest simulated time at which a newly assigned task could start:
  /// now when idle, otherwise the completion time of the running task plus
  /// the execution times of everything queued. This is the "ready time" that
  /// MECT/MM-style policies add the EET to.
  [[nodiscard]] core::SimTime ready_time() const;

  /// Expected completion time of a hypothetical task with execution time
  /// \p exec_seconds if it were assigned now.
  [[nodiscard]] core::SimTime expected_completion(double exec_seconds) const {
    return ready_time() + exec_seconds;
  }

  /// Assigns a task by row index (paper: appends to the local machine
  /// queue). Starts it immediately when the machine is idle. Requires queue
  /// space and exec_seconds > 0. Updates the task row (status, machine,
  /// times).
  void enqueue(std::size_t task, double exec_seconds);

  /// Removes a task (by row index) before it finishes (deadline drop).
  /// Cancels the pending completion if the task was running and pulls the
  /// next queued task in. Returns false when the task is not on this machine.
  bool remove(std::size_t task);

  /// Ids of queued tasks, front (next to run) first.
  [[nodiscard]] std::vector<workload::TaskId> queued_task_ids() const;

  /// Id of the running task, if any.
  [[nodiscard]] std::optional<workload::TaskId> running_task_id() const noexcept;

  /// Finalizes accounting at \p horizon (usually the end of the simulation)
  /// and returns activity statistics. Requires horizon >= engine.now() of
  /// the last activity; partial busy time of an in-flight task is counted.
  [[nodiscard]] MachineStats finalize_stats(core::SimTime horizon) const;

  /// Energy in joules consumed over [0, horizon] under the two-state model:
  /// busy_seconds * busy_watts + idle_seconds * idle_watts.
  [[nodiscard]] double energy_joules(core::SimTime horizon) const;

  /// Dynamic (execution-attributable) energy over [0, horizon]:
  /// busy_seconds * busy_watts. This is the quantity energy-aware policies
  /// (ELARE/FELARE) optimize; the remainder of energy_joules() is the static
  /// idle draw, which accrues with wall time regardless of mapping.
  [[nodiscard]] double dynamic_energy_joules(core::SimTime horizon) const;

  /// Returns the machine to its initial idle/online state (empty queue, no
  /// running task, zeroed accounting), keeping its identity, power model,
  /// queue capacity and attached listener/cache/checkpoint pointers. Requires
  /// the owning engine to have been rewound to time 0 first; any pending
  /// completion events must already be gone with it.
  void reset();

 private:
  struct QueueEntry {
    std::size_t task;  ///< row index into the SoA task state
    double exec_seconds;
  };
  /// What the machine is doing within one task's occupancy of the executor.
  enum class RunPhase : std::uint8_t {
    kRestart,     ///< reloading the last checkpoint (restart_cost)
    kWork,        ///< executing useful work
    kCheckpoint,  ///< writing a checkpoint (cost); commits on completion
  };
  struct RunningEntry {
    std::size_t task = 0;         ///< row index into the SoA task state
    double exec_seconds = 0.0;    ///< full from-scratch execution on this machine
    double work_total = 0.0;      ///< work remaining at start: (1-base)·exec
    double work_done = 0.0;       ///< work executed in closed work segments
    double work_committed = 0.0;  ///< work protected by committed checkpoints
    double base_fraction = 0.0;   ///< committed progress carried in from prior runs
    RunPhase phase = RunPhase::kWork;
    core::SimTime phase_started_at = 0.0;
    core::SimTime started_at = 0.0;
    core::SimTime finish_at = 0.0;  ///< projected completion incl. overheads
    core::EventId pending_event = 0;
    fault::TransferId io_transfer = fault::kNoTransfer;  ///< in-flight channel transfer
  };

  void start_next();
  void begin_work_segment();
  void on_checkpoint_write();
  void on_checkpoint_commit();
  void on_restart_loaded();
  void on_completion();
  /// Projected wallclock for the whole run: restart + work + checkpoint writes.
  [[nodiscard]] double projected_run_seconds(const RunningEntry& run) const;
  /// Per-write / per-restart wallclock estimate: the fixed cost, or the
  /// channel's uncontended transfer time. Require a checkpoint spec.
  [[nodiscard]] double checkpoint_write_estimate() const;
  [[nodiscard]] double restart_read_estimate() const;
  /// Charges an interrupted run's waste (lost work, partial-phase overhead,
  /// machine wallclock) to the task record; returns the elapsed wallclock.
  double settle_aborted_run(const RunningEntry& run, core::SimTime now) const;

  core::Engine& engine_;
  hetero::MachineId id_;
  std::string name_;
  hetero::MachineTypeId type_;
  hetero::MachineTypeSpec power_;
  std::size_t queue_capacity_;
  MachineListener* listener_ = nullptr;
  workload::TaskStateSoA* task_state_ = nullptr;
  mem::ModelCache* model_cache_ = nullptr;
  const CheckpointSpec* checkpoint_ = nullptr;
  fault::IoChannel* io_channel_ = nullptr;
  std::vector<CheckpointMark> checkpoint_marks_;

  MachineState state_ = MachineState::kOnline;
  core::SimTime online_since_ = 0.0;      ///< start of the current online span
  double accumulated_online_ = 0.0;       ///< closed online spans
  std::vector<FailureSpan> failure_spans_;

  std::deque<QueueEntry> queue_;
  std::optional<RunningEntry> running_;

  double busy_seconds_ = 0.0;  ///< completed/aborted execution time so far
  std::size_t completed_ = 0;
  std::size_t dropped_ = 0;
  std::size_t aborted_ = 0;    ///< evicted by failures
};

}  // namespace e2c::machines
