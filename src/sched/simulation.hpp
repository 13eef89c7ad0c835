/// \file simulation.hpp
/// \brief The E2C simulation: Fig. 1's pipeline wired onto the event engine.
///
/// A Simulation owns the engine, the machines, the task records and the
/// batch queue, and drives the selected scheduling policy:
///
///   workload --arrival events--> batch queue --policy--> machine queues
///        cancelled (deadline before mapping)   dropped (deadline after)
///
/// The simulation is the single writer of task records; policies only see
/// const views. One Simulation per thread (engines are not thread-safe);
/// parallel experiments build one Simulation per worker and reset() it
/// between replications.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <optional>

#include "core/engine.hpp"
#include "fault/fault_model.hpp"
#include "fault/io_channel.hpp"
#include "hetero/eet_matrix.hpp"
#include "hetero/pet_matrix.hpp"
#include "machines/machine.hpp"
#include "mem/model_cache.hpp"
#include "net/comm_model.hpp"
#include "sched/policy.hpp"
#include "sched/task_index_queue.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace e2c::sched {

/// Elasticity controller configuration (the "scalability" dimension the
/// paper's abstract names). When enabled, the simulation periodically
/// inspects the batch queue: sustained backlog powers on an offline machine
/// (after a boot delay); an empty queue powers off idle machines down to
/// min_online. Offline machines draw no power and accept no work.
struct AutoscalerConfig {
  bool enabled = false;
  core::SimTime interval = 5.0;     ///< seconds between control decisions
  std::size_t queue_high = 8;       ///< batch-queue length that triggers scale-out
  std::size_t queue_low = 1;        ///< batch-queue length that allows scale-in
  core::SimTime boot_delay = 2.0;   ///< power-on latency
  std::size_t min_online = 1;       ///< never scale below this many machines
  /// Machines started offline (indices into SystemConfig::machines); they
  /// join only when the autoscaler powers them on.
  std::vector<std::size_t> initially_offline;
};

/// One machine instance to build: display name + type (EET column) + power.
struct MachineInstance {
  std::string name;
  hetero::MachineTypeId type = 0;
  hetero::MachineTypeSpec power;
};

/// Static description of the simulated system.
struct SystemConfig {
  hetero::EetMatrix eet;
  std::vector<MachineInstance> machines;
  /// Waiting-slot capacity of each machine's local queue for batch policies
  /// (the paper's "machine queue size"); immediate policies always run
  /// unbounded (Fig. 3). machines::kUnboundedQueue disables the limit.
  std::size_t machine_queue_capacity = 2;

  /// Stochastic execution times (PET). When set, each dispatch samples its
  /// actual execution time from the PET cell while schedulers keep planning
  /// on the EET expectations. Must match the EET's shape.
  std::optional<hetero::PetMatrix> pet;
  /// Seed for the PET sampling stream (independent of workload seeds).
  std::uint64_t sampling_seed = 0xE2CE2CE2CULL;

  /// Data-transfer model. When set, a mapped task's payload must transfer
  /// (holding its reserved queue slot, not the executor) before it can
  /// enter the machine queue. Must cover the EET's task/machine types.
  std::optional<net::CommModel> comm;

  /// Multi-tenant memory model (Edge-MultiAI substrate, paper ref [22]).
  /// When set, each machine gets a warm-model cache sized by its machine
  /// type; cold starts extend execution by the model-load penalty.
  std::optional<mem::MemoryModel> memory;

  /// Elasticity controller (off by default).
  AutoscalerConfig autoscaler;

  /// Fault injection (off by default). When enabled, machines crash per the
  /// injector's schedule: the running task and local queue are aborted into
  /// retry (or FAILED once out of retries) and the machine rejoins the pool
  /// at its repair time.
  fault::FaultConfig faults;
};

/// Builds a SystemConfig with one machine instance per EET machine-type
/// column, named after the column, with catalog/generic power specs.
[[nodiscard]] SystemConfig make_default_system(hetero::EetMatrix eet,
                                               std::size_t machine_queue_capacity = 2);

/// Aggregate outcome counters (the Summary Report's headline numbers).
struct SimulationCounters {
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;  ///< deadline passed before mapping
  std::size_t dropped = 0;    ///< deadline passed after mapping
  std::size_t failed = 0;     ///< lost to machine failures (retries exhausted
                              ///< or deadline passed while waiting on retry)
  std::size_t requeued = 0;   ///< fault-abort retries (events, not tasks)
  std::size_t replicas_cancelled = 0;  ///< losing replicas cancelled by a winner
  /// Wallclock the losing replicas spent *running* before a sibling's
  /// completion cancelled them — the honest price of active replication.
  double cancelled_replica_seconds = 0.0;

  /// Completed / total in percent; 0 for an empty workload.
  [[nodiscard]] double completion_percent() const noexcept {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(completed) / static_cast<double>(total);
  }
};

/// A full simulation run bound to one workload and one policy.
class Simulation final : public machines::MachineListener {
 public:
  /// Builds the system. Throws e2c::InputError on an empty machine list or a
  /// machine referencing a type outside the EET matrix.
  Simulation(SystemConfig config, std::unique_ptr<Policy> policy);

  /// Same, but shares one immutable SystemConfig across many simulations —
  /// the experiment data plane builds the config once per sweep and every
  /// cell/worker aliases it instead of copying EET/PET/comm tables.
  Simulation(std::shared_ptr<const SystemConfig> config, std::unique_ptr<Policy> policy);

  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Loads a copy of the workload: the shared-trace load over a private
  /// copy. Call exactly once before run()/stepping.
  void load(const workload::Workload& workload);

  /// Shared-trace load: aliases an immutable workload (validated against the
  /// EET matrix) and keeps only one arrival event in the calendar at a time
  /// (a cursor that re-arms itself), so the event heap stays at in-system
  /// size instead of trace size. Call exactly once before run()/stepping.
  void load(std::shared_ptr<const workload::Workload> workload);

  /// Runs to completion (every task reaches a terminal state).
  void run();

  /// Processes a single event — the GUI "Increment" button. Returns false
  /// when nothing is pending (simulation finished).
  bool step();

  /// Returns the simulation to its just-constructed state so the next load()
  /// can run a fresh replication without rebuilding machines/caches. The new
  /// policy must have the same mode (batch/immediate) as the old one because
  /// the machine-queue capacity is baked in at construction; throws
  /// e2c::InputError otherwise.
  void reset(std::unique_ptr<Policy> policy);

  /// True once every loaded task is terminal.
  [[nodiscard]] bool finished() const noexcept;

  // ---- inspection ---------------------------------------------------------

  /// The engine (exposed for the step-mode visualizer and tests that step or
  /// peek it; do not schedule into it).
  [[nodiscard]] core::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const core::Engine& engine() const noexcept { return engine_; }

  /// The EET matrix in use.
  [[nodiscard]] const hetero::EetMatrix& eet() const noexcept { return config_->eet; }

  /// The policy in use.
  [[nodiscard]] const Policy& policy() const noexcept { return *policy_; }

  /// The SoA per-run task state (arrival order / row index order), with live
  /// status columns; `task_state().defs` is the immutable definitions view.
  [[nodiscard]] const workload::TaskStateSoA& task_state() const noexcept {
    return state_;
  }

  /// Number of machine instances.
  [[nodiscard]] std::size_t machine_count() const noexcept { return machines_.size(); }

  /// Machine instance \p index.
  [[nodiscard]] const machines::Machine& machine(std::size_t index) const {
    return *machines_.at(index);
  }

  /// Ids of tasks currently waiting in the batch queue, arrival order.
  [[nodiscard]] std::vector<workload::TaskId> batch_queue_ids() const;

  /// Outcome counters so far.
  [[nodiscard]] const SimulationCounters& counters() const noexcept { return counters_; }

  /// Number of scheduler invocations (batch rounds) run so far — the
  /// denominator for scheduler-throughput measurements.
  [[nodiscard]] std::uint64_t scheduler_invocations() const noexcept {
    return scheduler_invocations_;
  }

  /// Row indices of tasks that were cancelled or dropped, in the order they
  /// missed — the Missed Tasks panel of Fig. 4.
  [[nodiscard]] std::vector<std::size_t> missed_tasks() const;

  /// Observed on-time completion rate of a task type (1.0 before any task of
  /// the type reached a terminal state). Drives fairness-aware policies.
  [[nodiscard]] double type_ontime_rate(hetero::TaskTypeId type) const;

  /// type_ontime_rate(t) for every task type, in type order, without a copy:
  /// the rates every terminal transition keeps current for the scheduler.
  /// Valid outside a scheduler round (during one the buffer is lent to the
  /// SchedulingContext); reports read it after run().
  [[nodiscard]] std::span<const double> type_ontime_rates() const noexcept {
    return rates_scratch_;
  }

  /// Total energy (J) across machines over [0, horizon]; horizon defaults to
  /// the current simulated time.
  [[nodiscard]] double total_energy_joules() const;
  [[nodiscard]] double total_energy_joules(core::SimTime horizon) const;

  /// Dynamic (execution-only) energy across machines — excludes idle draw.
  [[nodiscard]] double total_dynamic_energy_joules(core::SimTime horizon) const;

  /// Number of machines currently online (powered).
  [[nodiscard]] std::size_t online_machine_count() const noexcept;

  /// Number of tasks whose payload is currently in flight to \p machine.
  [[nodiscard]] std::size_t in_flight_count(hetero::MachineId machine) const;

  /// The warm-model cache of \p machine, or nullptr when the system has no
  /// memory model.
  [[nodiscard]] const mem::ModelCache* model_cache(hetero::MachineId machine) const;

  /// The fault configuration in effect (recovery strategy, retry policy).
  [[nodiscard]] const fault::FaultConfig& fault_config() const noexcept {
    return config_->faults;
  }

  /// The shared checkpoint-I/O channel, or nullptr when the run has no
  /// bandwidth-arbitrated I/O ([io] unconfigured, or recovery != checkpoint).
  [[nodiscard]] const fault::IoChannel* io_channel() const noexcept {
    return io_channel_.get();
  }

  /// Tenant display names for multi-tenant runs; empty for single-tenant
  /// workloads (every task carries tenant 0). Set by the experiment layer
  /// right after construction; reports/viz use it to label the per-tenant
  /// waste decomposition.
  void set_tenant_names(std::vector<std::string> names) {
    tenant_names_ = std::move(names);
  }
  [[nodiscard]] const std::vector<std::string>& tenant_names() const noexcept {
    return tenant_names_;
  }

  /// Executed work discarded by crashes/aborts, summed over all tasks (s).
  [[nodiscard]] double lost_work_seconds() const;

  /// Time spent writing checkpoints and reloading them, summed over tasks (s).
  [[nodiscard]] double checkpoint_overhead_seconds() const;

  /// Number of checkpoints committed across all tasks and machines.
  [[nodiscard]] std::size_t checkpoints_taken() const;

  // ---- MachineListener ----------------------------------------------------
  void on_task_completed(std::size_t task, hetero::MachineId machine) override;
  void on_slot_freed(hetero::MachineId machine) override;

 private:
  /// "Not part of any replica group" marker for group_of_.
  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

  [[nodiscard]] const SystemConfig& cfg() const noexcept { return *config_; }
  /// Aliases \p workload's definitions (it outlives the run in shared_trace_).
  void init_tasks(const workload::Workload& workload);
  void init_task_state();
  void schedule_control_events();
  void schedule_next_arrival();
  void on_arrival(std::size_t task_index);
  /// Puts task \p task_index's deadline check into the calendar.
  void arm_deadline(std::size_t task_index);
  /// Arms the deadline checks of the tasks in unarmed_ that can still fire
  /// (see the comment at unarmed_) and empties it.
  void arm_deadlines_that_can_fire();
  void on_deadline(std::size_t task_index);
  void on_transfer_complete(std::size_t task_index);
  void schedule_next_failure(std::size_t machine_index, double from);
  void on_machine_failure(std::size_t machine_index, double repair_time);
  void on_machine_repair(std::size_t machine_index);
  void handle_fault_abort(std::size_t task_index);
  void on_retry_ready(std::size_t task_index);
  [[nodiscard]] bool all_terminal() const noexcept;
  void request_schedule();
  /// One scheduler round: map_batch_queue(), then
  /// arm_deadlines_that_can_fire() on every exit path.
  void run_scheduler();
  void map_batch_queue();
  void apply_assignment(const Assignment& assignment);
  void autoscaler_tick();
  void scale_out();
  void scale_in();
  [[nodiscard]] std::size_t task_index(workload::TaskId id) const;
  void mark_terminal(std::size_t task_index);
  void record_outcome(std::size_t task_index, workload::TaskId display_id);
  void replicate_workload(std::size_t replicas);

  std::shared_ptr<const SystemConfig> config_;
  std::unique_ptr<Policy> policy_;
  std::string policy_name_;  ///< cached: stable storage for lazy event labels
  core::Engine engine_;
  std::vector<std::unique_ptr<machines::Machine>> machines_;

  /// SoA per-run task state: dense mutable columns over an aliased (or, for
  /// replication/tenant rewrites, adopted) immutable definitions trace.
  workload::TaskStateSoA state_;
  /// Generated traces carry ids 0..n-1 in arrival order; then index == id and
  /// task_index() is a bounds check. index_map_ is the fallback for traces
  /// with arbitrary ids (hand-written CSVs, replica clones).
  bool dense_ids_ = false;
  std::unordered_map<workload::TaskId, std::size_t> index_map_;
  /// Pending deadline-check event per task index (kNoEvent when none). With
  /// the batch queue's 4-byte node handle, one of the two per-task columns
  /// of the Simulation that every run allocates; retry_event_, group_of_ and
  /// in_flight_ below exist only for the features that use them.
  std::vector<core::EventId> deadline_event_;
  /// Tasks that arrived since the last scheduler round with a deadline after
  /// their arrival instant. Their deadline checks are armed at the end of
  /// that round, at the same instant, and only if they can fire: the task is
  /// still in the batch queue or transferring, or its machine's ready_time()
  /// is past the deadline. Any other check would be cancelled by the task's
  /// completion first. Runs with faults or a memory model can finish a task
  /// later than planned, so they arm every check at arrival
  /// (arm_every_deadline_).
  std::vector<std::size_t> unarmed_;
  bool arm_every_deadline_ = false;
  /// Batch queue over task indices: O(1) membership/removal, per-type lists
  /// in arrival order, links in a node pool sized by the peak queue length
  /// (see TaskIndexQueue).
  TaskIndexQueue batch_queue_;
  std::vector<workload::TaskId> missed_order_;

  /// Waiting-slot capacity of every machine queue, fixed at construction:
  /// kUnboundedQueue for immediate policies, the configured size otherwise.
  std::size_t queue_capacity_ = 0;

  // Per-round scheduler scratch, recycled through SchedulingContext's
  // release_buffers() so run_scheduler() allocates nothing at steady state.
  std::vector<MachineView> views_scratch_;
  std::vector<double> rates_scratch_;
  std::vector<Assignment> assignments_scratch_;

  SimulationCounters counters_;
  std::uint64_t scheduler_invocations_ = 0;
  std::vector<std::size_t> completed_by_type_;
  std::vector<std::size_t> terminal_by_type_;

  // Stochastic execution sampling stream (unused without a PET).
  util::Rng sampling_rng_;

  // In-flight transfer reservations (comm model only): one list per
  // machine, so a list's size is the queue slots it holds and memory scales
  // with payloads in flight, not with the trace. The transfer-complete event
  // id lets a machine failure (or deadline) cancel the arrival so a later
  // re-assignment cannot race a stale event. A list is bounded by the queue
  // capacity (batch policies) and kept in reservation order; a crash, the
  // one path that walks it, sorts it by task id first.
  struct Reservation {
    std::size_t task = 0;  ///< task row index
    double exec_seconds = 0.0;
    core::EventId event = core::kNoEvent;
  };
  std::vector<std::vector<Reservation>> in_flight_;
  std::vector<double> in_flight_exec_;  ///< per machine: sum of exec_seconds
  /// Removes the reservation of transferring task \p task_index from its
  /// machine's list and refunds its execution time; \p missing is the
  /// invariant message when there is none.
  Reservation release_reservation(std::size_t task_index, const char* missing);

  // Autoscaler state.
  std::vector<bool> booting_;

  // Fault-injection state (null/empty when faults are disabled). Each
  // machine has at most one pending failure *or* repair event; ids are kept
  // so the calendar can be drained once every task is terminal.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<core::EventId> pending_fault_event_;
  /// Pending retry-ready event per task index (kNoEvent when none); sized
  /// only when faults are enabled, the one way a task enters retry wait.
  std::vector<core::EventId> retry_event_;

  // Recovery-strategy state. The checkpoint spec lives here (Simulation is
  // non-movable, so its address is stable for the machines). Each replica
  // group is a primary plus its clones (task row indices); the group
  // yields exactly one outcome — the first completion wins and cancels the
  // siblings, or the group fails once every member is terminal.
  std::optional<machines::CheckpointSpec> checkpoint_spec_;
  /// Shared checkpoint-I/O channel (checkpoint strategy + [io] enabled only).
  std::unique_ptr<fault::IoChannel> io_channel_;
  /// Tenant roster for multi-tenant runs (empty when single-tenant).
  std::vector<std::string> tenant_names_;
  struct ReplicaGroup {
    std::vector<std::size_t> members;  ///< task row indices, primary first
    bool resolved = false;             ///< outcome already counted
  };
  std::vector<ReplicaGroup> groups_;
  /// Replica-group index per task index (kNoGroup when unreplicated); empty
  /// unless the run replicates (groups_ non-empty).
  std::vector<std::uint32_t> group_of_;
  void resolve_replica_group(ReplicaGroup& group, std::size_t task_index);
  void cancel_replica_siblings(ReplicaGroup& group, workload::TaskId winner_id);

  // Per-machine warm-model caches (memory model only).
  std::vector<std::unique_ptr<mem::ModelCache>> model_caches_;

  // Shared-trace load state: the aliased workload and the next arrival to arm.
  std::shared_ptr<const workload::Workload> shared_trace_;
  std::size_t arrival_cursor_ = 0;

  bool loaded_ = false;
  bool schedule_pending_ = false;
};

}  // namespace e2c::sched
