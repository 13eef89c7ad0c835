#include "sched/simulation.hpp"

#include <algorithm>

#include "hetero/machine_catalog.hpp"
#include "util/error.hpp"
#include "util/large_buffer.hpp"

namespace e2c::sched {

SystemConfig make_default_system(hetero::EetMatrix eet, std::size_t machine_queue_capacity) {
  SystemConfig config;
  config.machine_queue_capacity = machine_queue_capacity;
  const auto names = eet.machine_type_names();
  config.eet = std::move(eet);
  config.machines.reserve(names.size());
  const auto specs = hetero::resolve_machine_types(names);
  for (std::size_t i = 0; i < names.size(); ++i) {
    config.machines.push_back(MachineInstance{names[i], i, specs[i]});
  }
  return config;
}

Simulation::Simulation(SystemConfig config, std::unique_ptr<Policy> policy)
    : Simulation(std::make_shared<const SystemConfig>(std::move(config)),
                 std::move(policy)) {}

Simulation::Simulation(std::shared_ptr<const SystemConfig> config,
                       std::unique_ptr<Policy> policy)
    : config_(std::move(config)),
      policy_(std::move(policy)),
      sampling_rng_(config_ ? config_->sampling_seed : 0) {
  require_input(config_ != nullptr, "Simulation: config must not be null");
  require_input(policy_ != nullptr, "Simulation: policy must not be null");
  policy_name_ = policy_->name();
  require_input(!cfg().machines.empty(), "Simulation: at least one machine required");
  if (cfg().pet) {
    require_input(cfg().pet->task_type_count() == cfg().eet.task_type_count() &&
                      cfg().pet->machine_type_count() == cfg().eet.machine_type_count(),
                  "Simulation: PET shape must match the EET matrix");
  }
  if (cfg().comm) {
    require_input(cfg().comm->task_type_count() >= cfg().eet.task_type_count() &&
                      cfg().comm->machine_type_count() >= cfg().eet.machine_type_count(),
                  "Simulation: comm model must cover the EET's task/machine types");
  }

  // Immediate policies always run with unbounded machine queues (Fig. 3:
  // "machine queue size is limited to infinite for immediate policies").
  queue_capacity_ = policy_->mode() == PolicyMode::kImmediate ? machines::kUnboundedQueue
                                                              : cfg().machine_queue_capacity;

  machines_.reserve(cfg().machines.size());
  for (std::size_t i = 0; i < cfg().machines.size(); ++i) {
    const MachineInstance& instance = cfg().machines[i];
    require_input(instance.type < cfg().eet.machine_type_count(),
                  "Simulation: machine '" + instance.name +
                      "' references a type outside the EET matrix");
    machines_.push_back(std::make_unique<machines::Machine>(
        engine_, i, instance.name, instance.type, instance.power, queue_capacity_));
    machines_.back()->set_listener(this);
    // state_ is a member of a non-movable class: its address is stable.
    machines_.back()->set_task_state(&state_);
  }

  if (cfg().memory) {
    const mem::MemoryModel& memory = *cfg().memory;
    require_input(memory.model_mb.size() == cfg().eet.task_type_count() &&
                      memory.load_seconds.size() == cfg().eet.task_type_count(),
                  "Simulation: memory model needs one entry per task type");
    require_input(memory.machine_memory_mb.size() == cfg().eet.machine_type_count(),
                  "Simulation: memory model needs one capacity per machine type");
    model_caches_.reserve(machines_.size());
    for (const auto& machine : machines_) {
      model_caches_.push_back(std::make_unique<mem::ModelCache>(
          memory.machine_memory_mb[machine->type()], memory.model_mb,
          memory.load_seconds, memory.eviction));
      machine->set_model_cache(model_caches_.back().get());
    }
  }

  completed_by_type_.assign(cfg().eet.task_type_count(), 0);
  terminal_by_type_.assign(cfg().eet.task_type_count(), 0);
  rates_scratch_.assign(cfg().eet.task_type_count(), 1.0);
  in_flight_.resize(machines_.size());
  in_flight_exec_.assign(machines_.size(), 0.0);
  booting_.assign(machines_.size(), false);
  pending_fault_event_.assign(machines_.size(), core::kNoEvent);
  if (cfg().faults.enabled) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg().faults, machines_.size());
    if (cfg().faults.recovery.strategy == fault::RecoveryStrategy::kCheckpoint) {
      // The spec lives in the simulation (non-movable, stable address); all
      // machines of one run share the same τ/C/R.
      checkpoint_spec_ = machines::CheckpointSpec{
          cfg().faults.effective_checkpoint_interval(),
          cfg().faults.recovery.checkpoint_cost,
          cfg().faults.recovery.restart_cost};
      for (const auto& machine : machines_) {
        machine->set_checkpoint_spec(&*checkpoint_spec_);
      }
      if (cfg().faults.io.enabled) {
        // Finite shared bandwidth: checkpoint writes and restart reads become
        // transfers on one channel, stretching with contention.
        io_channel_ = std::make_unique<fault::IoChannel>(
            engine_, cfg().faults.io, cfg().faults.recovery.checkpoint_cost,
            cfg().faults.recovery.restart_cost);
        for (const auto& machine : machines_) {
          machine->set_io_channel(io_channel_.get());
        }
      }
    }
  }

  // Crashes and cold starts move a completion past the instant ready_time()
  // planned, the premise of skipping a deadline check (see unarmed_).
  arm_every_deadline_ = injector_ != nullptr || cfg().memory.has_value();

  const AutoscalerConfig& scaler = cfg().autoscaler;
  if (scaler.enabled) {
    require_input(scaler.interval > 0.0, "autoscaler: interval must be > 0");
    require_input(scaler.boot_delay >= 0.0, "autoscaler: boot_delay must be >= 0");
    require_input(scaler.min_online >= 1, "autoscaler: min_online must be >= 1");
    require_input(scaler.min_online <= machines_.size(),
                  "autoscaler: min_online exceeds the machine count");
  }
  for (std::size_t index : scaler.initially_offline) {
    require_input(index < machines_.size(), "autoscaler: initially_offline out of range");
    machines_[index]->set_online(false, 0.0);
  }
  if (scaler.enabled) {
    require_input(online_machine_count() >= scaler.min_online,
                  "autoscaler: fewer machines online at start than min_online");
  } else {
    require_input(scaler.initially_offline.empty() ||
                      online_machine_count() >= 1,
                  "Simulation: at least one machine must start online");
  }
}

Simulation::~Simulation() = default;

void Simulation::init_tasks(const workload::Workload& workload) {
  // One outcome per *submitted* task: replica clones never add to the total.
  counters_.total = workload.tasks().size();
  const fault::RecoveryConfig& recovery = cfg().faults.recovery;
  state_.bind(workload.tasks());
  // Generated traces carry ids 0..n-1 in arrival order, so index == id and
  // task_index() degenerates to a bounds check; arbitrary ids (hand-written
  // CSVs, replica clones) fall back to the hash map. The Workload knows
  // whether its ids are dense; rows the run adopts are scanned here.
  dense_ids_ = workload.dense_ids();
  if (cfg().faults.enabled && recovery.strategy == fault::RecoveryStrategy::kReplicate &&
      recovery.replicas > 1) {
    // replicate_workload adopts the expanded clone set in place of the alias.
    replicate_workload(recovery.replicas);
    dense_ids_ = workload::ids_dense(state_.defs);
  }
  if (injector_) state_.enable_retry_column();
  if (checkpoint_spec_) state_.enable_checkpoint_column();
  init_task_state();
}

void Simulation::init_task_state() {
  index_map_.clear();
  if (!dense_ids_) {
    index_map_.reserve(state_.size());
    for (std::size_t i = 0; i < state_.size(); ++i) {
      require_input(index_map_.emplace(state_.id(i), i).second, [&] {
        return "Simulation: duplicate task id " + std::to_string(state_.id(i));
      });
    }
  }
  deadline_event_.clear();
  util::reserve_large(deadline_event_, state_.size());
  deadline_event_.assign(state_.size(), core::kNoEvent);
  retry_event_.assign(injector_ ? state_.size() : 0, core::kNoEvent);
  group_of_.clear();
  if (!groups_.empty()) {
    group_of_.assign(state_.size(), kNoGroup);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (std::size_t member : groups_[g].members) {
        group_of_[member] = static_cast<std::uint32_t>(g);
      }
    }
  }
  batch_queue_.reset(state_.defs, cfg().eet.task_type_count());
}

void Simulation::schedule_control_events() {
  if (cfg().autoscaler.enabled && state_.size() != 0) {
    engine_.schedule_at(cfg().autoscaler.interval, core::EventPriority::kControl,
                        "autoscaler tick", [this] { autoscaler_tick(); });
  }
  if (injector_ && state_.size() != 0) {
    for (std::size_t m = 0; m < machines_.size(); ++m) schedule_next_failure(m, 0.0);
  }
}

void Simulation::load(const workload::Workload& workload) {
  load(std::make_shared<const workload::Workload>(workload));
}

void Simulation::load(std::shared_ptr<const workload::Workload> workload) {
  require_input(!loaded_, "Simulation: load() may only be called once");
  require_input(workload != nullptr, "Simulation: workload must not be null");
  workload->validate_against(cfg().eet);
  loaded_ = true;
  shared_trace_ = std::move(workload);
  init_tasks(*shared_trace_);
  arrival_cursor_ = 0;
  schedule_next_arrival();
  schedule_control_events();
}

void Simulation::schedule_next_arrival() {
  // The task rows are sorted by arrival (Workload guarantees it;
  // replicate_workload preserves it), so arming one arrival at a time keeps
  // the calendar at in-system size while popping events in exactly the order
  // arming them all up front would: ties at one instant resolve by priority
  // first, and the next arrival's later insertion sequence only competes
  // with other arrivals — of which the cursor keeps exactly one pending.
  // Nothing cancels an arrival, so it is posted: it waits in the calendar's
  // arrival slot instead of a heap.
  if (arrival_cursor_ >= state_.size()) return;
  const std::size_t i = arrival_cursor_;
  engine_.post_at(state_.arrival(i), core::EventPriority::kArrival,
                  core::EventLabel("arrival task=", state_.id(i)), [this, i] {
                    ++arrival_cursor_;
                    schedule_next_arrival();
                    on_arrival(i);
                  });
}

void Simulation::run() {
  require_input(loaded_, "Simulation: call load() before run()");
  engine_.run();
}

bool Simulation::step() {
  require_input(loaded_, "Simulation: call load() before step()");
  return engine_.step();
}

void Simulation::reset(std::unique_ptr<Policy> policy) {
  require_input(policy != nullptr, "Simulation: policy must not be null");
  require_input(policy->mode() == policy_->mode(),
                "Simulation: reset() needs a policy of the same mode (the machine "
                "queue capacity is fixed at construction)");
  policy_ = std::move(policy);
  policy_name_ = policy_->name();

  engine_.reset();
  if (io_channel_) io_channel_->reset();
  for (const auto& machine : machines_) machine->reset();
  for (std::size_t index : cfg().autoscaler.initially_offline) {
    machines_[index]->set_online(false, 0.0);
  }
  for (const auto& cache : model_caches_) cache->reset();

  state_.bind({});
  dense_ids_ = false;
  index_map_.clear();
  deadline_event_.clear();
  unarmed_.clear();
  retry_event_.clear();
  group_of_.clear();
  groups_.clear();
  batch_queue_.reset({}, cfg().eet.task_type_count());
  missed_order_.clear();
  counters_ = SimulationCounters{};
  scheduler_invocations_ = 0;
  std::fill(completed_by_type_.begin(), completed_by_type_.end(), 0);
  std::fill(terminal_by_type_.begin(), terminal_by_type_.end(), 0);
  // assign, not fill: a run abandoned by an exception can leave the lent
  // scratch buffer moved-out, and reset() promises just-constructed state.
  rates_scratch_.assign(cfg().eet.task_type_count(), 1.0);
  sampling_rng_ = util::Rng(cfg().sampling_seed);
  for (std::vector<Reservation>& reservations : in_flight_) reservations.clear();
  std::fill(in_flight_exec_.begin(), in_flight_exec_.end(), 0.0);
  std::fill(booting_.begin(), booting_.end(), false);
  std::fill(pending_fault_event_.begin(), pending_fault_event_.end(), core::kNoEvent);
  if (cfg().faults.enabled) {
    // The injector owns per-machine RNG streams; a fresh replication needs
    // the same schedule a fresh Simulation would draw.
    injector_ = std::make_unique<fault::FaultInjector>(cfg().faults, machines_.size());
  }
  shared_trace_.reset();
  arrival_cursor_ = 0;
  loaded_ = false;
  schedule_pending_ = false;
}

bool Simulation::finished() const noexcept {
  return std::all_of(state_.status.begin(), state_.status.end(),
                     [](workload::TaskStatus status) { return is_terminal(status); });
}

std::vector<workload::TaskId> Simulation::batch_queue_ids() const {
  std::vector<workload::TaskId> ids;
  ids.reserve(batch_queue_.size());
  for (const workload::TaskDef* task : batch_queue_.ordered()) ids.push_back(task->id);
  return ids;
}

std::vector<std::size_t> Simulation::missed_tasks() const {
  std::vector<std::size_t> missed;
  missed.reserve(missed_order_.size());
  for (workload::TaskId id : missed_order_) missed.push_back(task_index(id));
  return missed;
}

double Simulation::type_ontime_rate(hetero::TaskTypeId type) const {
  require_input(type < terminal_by_type_.size(), "type_ontime_rate: type out of range");
  if (terminal_by_type_[type] == 0) return 1.0;
  return static_cast<double>(completed_by_type_[type]) /
         static_cast<double>(terminal_by_type_[type]);
}

double Simulation::total_energy_joules() const { return total_energy_joules(engine_.now()); }

double Simulation::total_energy_joules(core::SimTime horizon) const {
  double joules = 0.0;
  for (const auto& machine : machines_) joules += machine->energy_joules(horizon);
  return joules;
}

double Simulation::total_dynamic_energy_joules(core::SimTime horizon) const {
  double joules = 0.0;
  for (const auto& machine : machines_) joules += machine->dynamic_energy_joules(horizon);
  return joules;
}

void Simulation::on_arrival(std::size_t index) {
  state_.status[index] = workload::TaskStatus::kInBatchQueue;
  batch_queue_.push_back(index);
  const core::SimTime deadline = state_.deadline(index);
  if (deadline < core::kTimeInfinity) {
    if (arm_every_deadline_ || deadline <= engine_.now()) {
      arm_deadline(index);
    } else {
      unarmed_.push_back(index);  // decided at the end of this instant's round
    }
  }
  request_schedule();
}

void Simulation::arm_deadline(std::size_t index) {
  deadline_event_[index] = engine_.schedule_at(
      std::max(state_.deadline(index), engine_.now()), core::EventPriority::kDeadline,
      core::EventLabel("deadline task=", state_.id(index)),
      [this, index] { on_deadline(index); });
}

void Simulation::arm_deadlines_that_can_fire() {
  // Runs at the end of the round that follows the arrivals in unarmed_, at
  // their arrival instant, so the timers enter the calendar in arrival order
  // and pop in the order arming them at arrival would give. A task mapped
  // straight onto a machine completes at a prefix of the float sum that
  // ready_time() adds up, so it cannot finish after ready_time(); when that
  // is not past the deadline, its completion (which pops before a deadline
  // check at the same instant) would cancel the timer before it fires.
  for (const std::size_t index : unarmed_) {
    const workload::TaskStatus status = state_.status[index];
    const bool mapped = status == workload::TaskStatus::kInMachineQueue ||
                        status == workload::TaskStatus::kRunning;
    if (!mapped || machines_[state_.machine[index]]->ready_time() > state_.deadline(index)) {
      arm_deadline(index);
    }
  }
  unarmed_.clear();
}

void Simulation::on_deadline(std::size_t index) {
  deadline_event_[index] = core::kNoEvent;
  switch (state_.status[index]) {
    case workload::TaskStatus::kCompleted:
    case workload::TaskStatus::kCancelled:
    case workload::TaskStatus::kDropped:
    case workload::TaskStatus::kFailed:
    case workload::TaskStatus::kReplicaCancelled:
      return;  // already terminal (completion at the same instant ran first)
    case workload::TaskStatus::kRetryWait: {
      // Deadline passed while the task waited out a retry backoff: the
      // machine failure ultimately cost the task, so it counts as failed.
      require(retry_event_[index] != core::kNoEvent,
              "deadline: retry-wait task has no retry event");
      engine_.cancel(retry_event_[index]);
      retry_event_[index] = core::kNoEvent;
      state_.finish(index, workload::TaskStatus::kFailed, engine_.now());
      mark_terminal(index);
      return;
    }
    case workload::TaskStatus::kInBatchQueue: {
      // Deadline before mapping: cancelled (paper §3).
      require(batch_queue_.erase(index), "deadline: task missing from batch queue");
      state_.finish(index, workload::TaskStatus::kCancelled, engine_.now());
      mark_terminal(index);
      return;
    }
    case workload::TaskStatus::kTransferring: {
      // Deadline while the payload was still in flight: the task was mapped,
      // so this counts as dropped; release the reserved queue slot.
      engine_.cancel(
          release_reservation(index, "deadline: transferring task has no reservation").event);
      state_.finish(index, workload::TaskStatus::kDropped, engine_.now());
      mark_terminal(index);
      request_schedule();  // the freed slot may unblock a batch-queue task
      return;
    }
    case workload::TaskStatus::kInMachineQueue:
    case workload::TaskStatus::kRunning: {
      // Deadline after mapping: dropped from the machine (paper §3). A
      // checkpointed task is no exception — committed progress never
      // resurrects a task past its deadline.
      require(state_.machine[index] != workload::kNoMachine,
              "deadline: mapped task has no machine");
      const bool removed = machines_[state_.machine[index]]->remove(index);
      require(removed, "deadline: task not found on its assigned machine");
      state_.finish(index, workload::TaskStatus::kDropped, engine_.now());
      mark_terminal(index);
      return;
    }
    case workload::TaskStatus::kPending:
      throw InvariantError("deadline fired for a task that never arrived");
  }
}

void Simulation::request_schedule() {
  if (schedule_pending_ || batch_queue_.empty()) return;
  schedule_pending_ = true;
  engine_.post_at(engine_.now(), core::EventPriority::kSchedule,
                  core::EventLabel::join("invoke scheduler (", policy_name_.c_str(), ")"),
                  [this] { run_scheduler(); });
}

void Simulation::run_scheduler() {
  schedule_pending_ = false;
  try {
    map_batch_queue();
  } catch (...) {
    arm_deadlines_that_can_fire();
    throw;
  }
  arm_deadlines_that_can_fire();
}

void Simulation::map_batch_queue() {
  if (batch_queue_.empty()) return;
  ++scheduler_invocations_;

  // The two context buffers are scratch members: run_scheduler fires once
  // per batch round, and reusing their capacity avoids two heap allocations
  // per round on the hot path.
  std::vector<MachineView>& views = views_scratch_;
  views.clear();
  views.reserve(machines_.size());
  const bool unbounded = queue_capacity_ == machines::kUnboundedQueue;
  bool any_slot = false;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    const machines::Machine& machine = *machines_[m];
    MachineView view;
    view.id = machine.id();
    view.type = machine.type();
    // Projected ready time includes work whose payload is still in flight.
    view.ready_time = machine.ready_time() + in_flight_exec_[m];
    const std::size_t used = machine.queue_length() + in_flight_[m].size();
    if (!machine.online() || (!unbounded && used >= queue_capacity_)) {
      view.free_slots = 0;
    } else {
      view.free_slots = unbounded ? kUnlimitedSlots : queue_capacity_ - used;
      any_slot = true;
    }
    view.idle_watts = machine.power().idle_watts;
    view.busy_watts = machine.power().busy_watts;
    view.availability = machine.availability(engine_.now());
    views.push_back(view);
  }
  // Every machine is full or offline: no policy can map anything (the
  // schedule_into contract), so the round is counted but the policy is not
  // called. At overload most arrivals post such a round.
  if (!any_slot) return;

  // Maintained incrementally by record_outcome(); identical to recomputing
  // type_ontime_rate(t) for every type here, without the O(types) sweep.
  std::vector<double>& rates = rates_scratch_;

  // The context wraps the live batch-queue index: no per-round copy of the
  // queue (policies that want the arrival-ordered vector get the index's
  // cached merge).
  SchedulingContext context(engine_.now(), cfg().eet, std::move(views), batch_queue_,
                            std::move(rates), cfg().pet ? &*cfg().pet : nullptr);
  // Lent like the context buffers above: schedule_into clears and refills
  // it, so a steady-state scheduler round makes zero allocator calls.
  std::vector<Assignment>& assignments = assignments_scratch_;
  try {
    policy_->schedule_into(context, assignments);
  } catch (...) {
    // The scratch buffers were lent to the context by move; a throwing
    // policy must not leave them moved-out-empty, or the next
    // record_outcome() writes rates_scratch_[type] past a zero-size
    // vector (reset() only re-fills, it does not re-size).
    context.release_buffers(views_scratch_, rates_scratch_);
    throw;
  }
  context.release_buffers(views_scratch_, rates_scratch_);
  for (const Assignment& assignment : assignments) apply_assignment(assignment);
}

void Simulation::apply_assignment(const Assignment& assignment) {
  const std::size_t index = task_index(assignment.task);
  require_input(state_.status[index] == workload::TaskStatus::kInBatchQueue, [&] {
    return "policy '" + policy_name_ + "' assigned task " +
           std::to_string(assignment.task) + " which is not in the batch queue";
  });
  require_input(assignment.machine < machines_.size(), [&] {
    return "policy '" + policy_name_ + "' assigned to unknown machine";
  });
  machines::Machine& machine = *machines_[assignment.machine];
  require_input(machine.has_queue_space(), [&] {
    return "policy '" + policy_name_ + "' overflowed queue of machine '" +
           machine.name() + "'";
  });
  require_input(queue_capacity_ == machines::kUnboundedQueue ||
                    machine.queue_length() + in_flight_[assignment.machine].size() <
                        queue_capacity_,
                [&] {
                  return "policy '" + policy_name_ +
                         "' overflowed reserved (in-flight) capacity of machine '" +
                         machine.name() + "'";
                });

  // Replicas must run on distinct machines: skip an assignment that would
  // co-locate two live copies of the same task. The task simply stays in the
  // batch queue and is re-offered on the next scheduling round (triggered by
  // the next slot-free/repair/completion event), so no deadlock arises.
  const std::uint32_t group_index = group_of_.empty() ? kNoGroup : group_of_[index];
  if (group_index != kNoGroup) {
    for (std::size_t member : groups_[group_index].members) {
      if (member == index || state_.finished(member)) continue;
      const workload::TaskStatus sibling_status = state_.status[member];
      const bool mapped = sibling_status == workload::TaskStatus::kTransferring ||
                          sibling_status == workload::TaskStatus::kInMachineQueue ||
                          sibling_status == workload::TaskStatus::kRunning;
      if (mapped && state_.machine[member] != workload::kNoMachine &&
          state_.machine[member] == assignment.machine) {
        return;
      }
    }
  }

  require(batch_queue_.erase(index), "assignment: task missing from batch queue");

  // Actual execution time: sampled under a PET, the EET expectation otherwise.
  const hetero::TaskTypeId type = state_.type(index);
  const double exec = cfg().pet
                          ? cfg().pet->sample(type, machine.type(), sampling_rng_)
                          : cfg().eet.eet_unchecked(type, machine.type());

  const core::SimTime transfer =
      cfg().comm ? cfg().comm->transfer_time(type, machine.type()) : 0.0;
  if (transfer > 0.0) {
    state_.status[index] = workload::TaskStatus::kTransferring;
    state_.machine[index] = static_cast<std::uint32_t>(machine.id());
    state_.assignment_time[index] = engine_.now();
    const core::EventId event = engine_.schedule_in(
        transfer, core::EventPriority::kControl,
        core::EventLabel("transfer done task=", state_.id(index), " machine=",
                         machine.name().c_str()),
        [this, index] { on_transfer_complete(index); });
    in_flight_[machine.id()].push_back(Reservation{index, exec, event});
    in_flight_exec_[machine.id()] += exec;
  } else {
    machine.enqueue(index, exec);
  }
}

void Simulation::on_transfer_complete(std::size_t index) {
  // Deadline drops and machine failures cancel the transfer event, so a
  // firing event always finds its reservation intact.
  require(state_.status[index] == workload::TaskStatus::kTransferring,
          "transfer completed for a task no longer transferring");
  const Reservation reservation = release_reservation(index, "transfer: missing reservation");
  machines_[state_.machine[index]]->enqueue(index, reservation.exec_seconds);
}

Simulation::Reservation Simulation::release_reservation(std::size_t index,
                                                        const char* missing) {
  const std::uint32_t m = state_.machine[index];
  require(m < in_flight_.size(), missing);
  std::vector<Reservation>& reservations = in_flight_[m];
  const auto it = std::find_if(reservations.begin(), reservations.end(),
                               [index](const Reservation& r) { return r.task == index; });
  require(it != reservations.end(), missing);
  const Reservation reservation = *it;
  reservations.erase(it);
  in_flight_exec_[m] -= reservation.exec_seconds;
  return reservation;
}

void Simulation::schedule_next_failure(std::size_t m, double from) {
  const auto span = injector_->next(m, from);
  if (!span) {
    pending_fault_event_[m] = core::kNoEvent;  // trace exhausted for this machine
    return;
  }
  const double repair_time = span->repair_time;
  pending_fault_event_[m] = engine_.schedule_at(
      span->fail_time, core::EventPriority::kControl,
      core::EventLabel::join("machine failure ", machines_[m]->name().c_str()),
      [this, m, repair_time] { on_machine_failure(m, repair_time); });
}

void Simulation::on_machine_failure(std::size_t m, double repair_time) {
  pending_fault_event_[m] = core::kNoEvent;
  machines::Machine& machine = *machines_[m];
  if (!machine.online()) {
    // A parked (powered-off) machine cannot crash; resume the failure
    // process once this span would have ended.
    schedule_next_failure(m, repair_time);
    return;
  }

  // Abort the committed work: running task first, then local queue, then
  // payloads still in flight toward the crashed machine (sorted by id so the
  // retry order is stable regardless of how reservations are stored, and
  // refunded in that order so in_flight_exec_ rounds the same way).
  std::vector<std::size_t> evicted = machine.fail(engine_.now());
  std::vector<Reservation>& transferring = in_flight_[m];
  std::sort(transferring.begin(), transferring.end(),
            [this](const Reservation& a, const Reservation& b) {
              return state_.id(a.task) < state_.id(b.task);
            });
  for (const Reservation& reservation : transferring) {
    engine_.cancel(reservation.event);
    in_flight_exec_[m] -= reservation.exec_seconds;
    evicted.push_back(reservation.task);
  }
  transferring.clear();
  // Schedule the repair before aborting tasks: if an abort ends the last
  // live task, mark_terminal drains this event so run() ends promptly.
  pending_fault_event_[m] = engine_.schedule_at(
      repair_time, core::EventPriority::kControl,
      core::EventLabel::join("machine repair ", machine.name().c_str()),
      [this, m] { on_machine_repair(m); });
  for (std::size_t task : evicted) handle_fault_abort(task);
}

void Simulation::on_machine_repair(std::size_t m) {
  pending_fault_event_[m] = core::kNoEvent;
  machines_[m]->repair(engine_.now());
  if (!all_terminal()) {
    schedule_next_failure(m, engine_.now());
    request_schedule();  // the repaired machine may unblock the batch queue
  }
}

void Simulation::handle_fault_abort(std::size_t index) {
  // The mapping is void; a retry starts from a clean record.
  state_.machine[index] = workload::kNoMachine;
  state_.assignment_time[index] = core::kTimeUnset;
  state_.start_time[index] = core::kTimeUnset;

  const fault::RetryPolicy& retry = cfg().faults.retry;
  if (state_.retries(index) >= retry.max_retries) {
    state_.finish(index, workload::TaskStatus::kFailed, engine_.now());
    if (deadline_event_[index] != core::kNoEvent) {
      engine_.cancel(deadline_event_[index]);
      deadline_event_[index] = core::kNoEvent;
    }
    mark_terminal(index);
    return;
  }
  const std::uint32_t retries = state_.add_retry(index);
  ++counters_.requeued;
  state_.status[index] = workload::TaskStatus::kRetryWait;
  retry_event_[index] = engine_.schedule_in(
      retry.delay(retries), core::EventPriority::kControl,
      core::EventLabel("retry task=", state_.id(index)),
      [this, index] { on_retry_ready(index); });
}

void Simulation::on_retry_ready(std::size_t index) {
  retry_event_[index] = core::kNoEvent;
  require(state_.status[index] == workload::TaskStatus::kRetryWait,
          "retry fired for a task not waiting on retry");
  state_.status[index] = workload::TaskStatus::kInBatchQueue;
  batch_queue_.push_back(index);
  request_schedule();
}

bool Simulation::all_terminal() const noexcept {
  return counters_.completed + counters_.cancelled + counters_.dropped +
             counters_.failed ==
         counters_.total;
}

std::size_t Simulation::online_machine_count() const noexcept {
  std::size_t count = 0;
  for (const auto& machine : machines_) {
    if (machine->online()) ++count;
  }
  return count;
}

std::size_t Simulation::in_flight_count(hetero::MachineId machine) const {
  require_input(machine < in_flight_.size(), "in_flight_count: machine out of range");
  return in_flight_[machine].size();
}

const mem::ModelCache* Simulation::model_cache(hetero::MachineId machine) const {
  require_input(machine < machines_.size(), "model_cache: machine out of range");
  return machine < model_caches_.size() ? model_caches_[machine].get() : nullptr;
}

void Simulation::autoscaler_tick() {
  const AutoscalerConfig& scaler = cfg().autoscaler;
  if (batch_queue_.size() >= scaler.queue_high) {
    scale_out();
  } else if (batch_queue_.size() <= scaler.queue_low) {
    scale_in();
  }
  // all_terminal() is the counter-based equivalent of finished(): both hold
  // exactly when every submitted task reached a terminal outcome, and the
  // counter check is O(1) instead of scanning every task per tick.
  if (!all_terminal()) {
    engine_.schedule_in(scaler.interval, core::EventPriority::kControl,
                        "autoscaler tick", [this] { autoscaler_tick(); });
  }
}

void Simulation::scale_out() {
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    // A failed machine cannot be booted; only repair brings it back.
    if (machines_[m]->online() || machines_[m]->failed() || booting_[m]) continue;
    booting_[m] = true;
    engine_.schedule_in(cfg().autoscaler.boot_delay, core::EventPriority::kControl,
                        core::EventLabel::join("machine online ",
                                               machines_[m]->name().c_str()),
                        [this, m] {
                          booting_[m] = false;
                          machines_[m]->set_online(true, engine_.now());
                          request_schedule();
                        });
    return;  // one machine per control decision
  }
}

void Simulation::scale_in() {
  std::size_t online = online_machine_count();
  for (std::size_t b = 0; b < booting_.size(); ++b) {
    if (booting_[b]) ++online;  // about to join; counts against min_online
  }
  if (online <= cfg().autoscaler.min_online) return;
  // Candidates: fully idle machines (nothing running, queued or in flight).
  // Keep one idle machine as headroom — powering off the only idle machine
  // while its peers are saturated causes boot-lag thrash on the next burst.
  std::vector<std::size_t> idle;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    const machines::Machine& machine = *machines_[m];
    if (machine.online() && !machine.busy() && machine.queue_length() == 0 &&
        in_flight_[m].empty()) {
      idle.push_back(m);
    }
  }
  if (idle.size() < 2) return;
  machines_[idle.back()]->set_online(false, engine_.now());
}

std::size_t Simulation::task_index(workload::TaskId id) const {
  if (dense_ids_) {
    require(id < state_.size(), [id] { return "unknown task id " + std::to_string(id); });
    return static_cast<std::size_t>(id);
  }
  const auto it = index_map_.find(id);
  require(it != index_map_.end(),
          [id] { return "unknown task id " + std::to_string(id); });
  return it->second;
}

void Simulation::record_outcome(std::size_t index, workload::TaskId display_id) {
  const hetero::TaskTypeId type = state_.type(index);
  ++terminal_by_type_[type];
  switch (state_.status[index]) {
    case workload::TaskStatus::kCompleted:
      ++counters_.completed;
      ++completed_by_type_[type];
      break;
    case workload::TaskStatus::kCancelled:
      ++counters_.cancelled;
      missed_order_.push_back(display_id);
      break;
    case workload::TaskStatus::kDropped:
      ++counters_.dropped;
      missed_order_.push_back(display_id);
      break;
    case workload::TaskStatus::kFailed:
      ++counters_.failed;
      missed_order_.push_back(display_id);
      break;
    default:
      throw InvariantError("record_outcome: task " + std::to_string(state_.id(index)) +
                           " has no countable terminal status");
  }
  // Keep the scheduler's ontime-rate view current incrementally: a type's
  // rate only moves at terminal transitions, so run_scheduler() can hand the
  // cached vector to the SchedulingContext instead of recomputing all
  // task_type_count() rates on every invocation.
  rates_scratch_[type] = type_ontime_rate(type);
}

void Simulation::resolve_replica_group(ReplicaGroup& group, std::size_t index) {
  if (group.resolved) return;
  const std::size_t primary = group.members.front();
  if (state_.status[index] == workload::TaskStatus::kCompleted) {
    // First completion wins the group; the siblings' work is now waste.
    group.resolved = true;
    record_outcome(index, state_.id(primary));
    cancel_replica_siblings(group, state_.id(index));
    return;
  }
  // A losing member alone decides nothing: the group's outcome stays open
  // until every copy is terminal, then the primary's fate is the group's.
  for (std::size_t member : group.members) {
    if (!state_.finished(member)) return;
  }
  group.resolved = true;
  record_outcome(primary, state_.id(primary));
}

void Simulation::cancel_replica_siblings(ReplicaGroup& group, workload::TaskId winner_id) {
  for (std::size_t member : group.members) {
    if (state_.id(member) == winner_id || state_.finished(member)) continue;
    if (deadline_event_[member] != core::kNoEvent) {
      engine_.cancel(deadline_event_[member]);
      deadline_event_[member] = core::kNoEvent;
    }
    switch (state_.status[member]) {
      case workload::TaskStatus::kInBatchQueue: {
        require(batch_queue_.erase(member), "replica cancel: task missing from batch queue");
        break;
      }
      case workload::TaskStatus::kTransferring: {
        engine_.cancel(
            release_reservation(member, "replica cancel: missing transfer reservation").event);
        break;
      }
      case workload::TaskStatus::kInMachineQueue:
      case workload::TaskStatus::kRunning: {
        require(state_.machine[member] != workload::kNoMachine,
                "replica cancel: mapped sibling has no machine");
        if (state_.status[member] == workload::TaskStatus::kRunning &&
            core::time_set(state_.start_time[member])) {
          counters_.cancelled_replica_seconds +=
              engine_.now() - state_.start_time[member];
        }
        const bool removed = machines_[state_.machine[member]]->remove(member);
        require(removed, "replica cancel: sibling not found on its machine");
        break;
      }
      case workload::TaskStatus::kRetryWait: {
        require(retry_event_[member] != core::kNoEvent,
                "replica cancel: missing retry event");
        engine_.cancel(retry_event_[member]);
        retry_event_[member] = core::kNoEvent;
        break;
      }
      default:
        // kPending is impossible: every replica arrives at the same instant
        // as its primary, strictly before any copy can complete.
        throw InvariantError("replica cancel: unexpected sibling status");
    }
    state_.finish(member, workload::TaskStatus::kReplicaCancelled, engine_.now());
    ++counters_.replicas_cancelled;
  }
}

void Simulation::mark_terminal(std::size_t index) {
  const std::uint32_t group_index = group_of_.empty() ? kNoGroup : group_of_[index];
  if (group_index == kNoGroup) {
    record_outcome(index, state_.id(index));
  } else {
    resolve_replica_group(groups_[group_index], index);
  }
  if (injector_ && all_terminal()) {
    // Nothing left to disturb: drain pending failure/repair events so the
    // calendar empties and run() terminates at the last task's finish.
    for (core::EventId& event : pending_fault_event_) {
      if (event != core::kNoEvent) {
        engine_.cancel(event);
        event = core::kNoEvent;
      }
    }
  }
}

void Simulation::replicate_workload(std::size_t replicas) {
  const std::span<const workload::TaskDef> defs = state_.defs;
  workload::TaskId next_id = 0;
  for (const workload::TaskDef& def : defs) next_id = std::max(next_id, def.id + 1);
  std::vector<workload::TaskDef> expanded;
  std::vector<workload::TaskId> replica_of;  // parallel to expanded
  expanded.reserve(defs.size() * replicas);
  replica_of.reserve(defs.size() * replicas);
  groups_.reserve(defs.size());
  for (const workload::TaskDef& primary : defs) {
    ReplicaGroup group;
    group.members.push_back(expanded.size());
    expanded.push_back(primary);
    replica_of.push_back(workload::kNoTaskId);
    for (std::size_t k = 1; k < replicas; ++k) {
      workload::TaskDef clone = primary;
      clone.id = next_id++;
      group.members.push_back(expanded.size());
      expanded.push_back(clone);
      replica_of.push_back(primary.id);
    }
    groups_.push_back(std::move(group));
  }
  state_.adopt(std::move(expanded));
  state_.replica_of = std::move(replica_of);
}

double Simulation::lost_work_seconds() const {
  double total = 0.0;
  for (std::size_t i = 0; i < state_.size(); ++i) total += state_.lost_seconds(i);
  return total;
}

double Simulation::checkpoint_overhead_seconds() const {
  double total = 0.0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    total += state_.checkpoint_overhead_seconds(i);
  }
  return total;
}

std::size_t Simulation::checkpoints_taken() const {
  std::size_t total = 0;
  for (const auto& times : state_.checkpoint_times) total += times.size();
  return total;
}

void Simulation::on_task_completed(std::size_t index, hetero::MachineId) {
  // The deadline check is no longer needed; keep the calendar lean.
  if (deadline_event_[index] != core::kNoEvent) {
    engine_.cancel(deadline_event_[index]);
    deadline_event_[index] = core::kNoEvent;
  }
  mark_terminal(index);
}

void Simulation::on_slot_freed(hetero::MachineId) { request_schedule(); }

}  // namespace e2c::sched
