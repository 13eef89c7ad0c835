#include "machines/machine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace e2c::machines {

const char* machine_state_name(MachineState state) noexcept {
  switch (state) {
    case MachineState::kOnline: return "online";
    case MachineState::kOffline: return "offline";
    case MachineState::kFailed: return "failed";
  }
  return "unknown";
}

Machine::Machine(core::Engine& engine, hetero::MachineId id, std::string name,
                 hetero::MachineTypeId type, hetero::MachineTypeSpec power,
                 std::size_t queue_capacity)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      type_(type),
      power_(std::move(power)),
      queue_capacity_(queue_capacity) {}

bool Machine::has_queue_space() const noexcept {
  if (state_ != MachineState::kOnline) return false;
  if (queue_capacity_ == kUnboundedQueue) return true;
  return queue_.size() < queue_capacity_;
}

void Machine::set_online(bool online, core::SimTime now) {
  if (state_ == MachineState::kFailed) return;  // only repair() revives a crash
  const bool is_online = state_ == MachineState::kOnline;
  if (online == is_online) return;
  if (online) {
    online_since_ = now;
  } else {
    accumulated_online_ += std::max(0.0, now - online_since_);
  }
  state_ = online ? MachineState::kOnline : MachineState::kOffline;
}

std::vector<std::size_t> Machine::fail(core::SimTime now) {
  require(state_ == MachineState::kOnline,
          [this] { return "Machine::fail: machine '" + name_ + "' is not online"; });
  std::vector<std::size_t> evicted;
  evicted.reserve(queue_.size() + 1);
  if (running_) {
    RunningEntry run = *running_;
    running_.reset();
    engine_.cancel(run.pending_event);
    if (io_channel_ && run.io_transfer != fault::kNoTransfer) {
      // The crash tears down the in-flight transfer; freed bandwidth
      // re-shares across the survivors immediately.
      io_channel_->cancel(run.io_transfer);
    }
    // The partial execution still burned time and energy; the task record
    // keeps the loss decomposition (lost vs checkpointed-and-kept).
    busy_seconds_ += settle_aborted_run(run, now);
    evicted.push_back(run.task);
  }
  for (const QueueEntry& entry : queue_) evicted.push_back(entry.task);
  queue_.clear();
  aborted_ += evicted.size();

  accumulated_online_ += std::max(0.0, now - online_since_);
  state_ = MachineState::kFailed;
  failure_spans_.push_back(FailureSpan{now, core::kTimeInfinity});
  return evicted;
}

void Machine::repair(core::SimTime now) {
  require(state_ == MachineState::kFailed,
          [this] { return "Machine::repair: machine '" + name_ + "' is not failed"; });
  require(!failure_spans_.empty(), "Machine::repair: no open failure span");
  failure_spans_.back().end = now;
  state_ = MachineState::kOnline;
  online_since_ = now;
}

double Machine::failed_seconds(core::SimTime horizon) const {
  double total = 0.0;
  for (const FailureSpan& span : failure_spans_) {
    if (span.start >= horizon) break;
    total += std::min(span.end, horizon) - span.start;
  }
  return total;
}

double Machine::availability(core::SimTime horizon) const {
  if (horizon <= 0.0) return 1.0;
  return std::max(0.0, 1.0 - failed_seconds(horizon) / horizon);
}

double Machine::online_seconds(core::SimTime horizon) const {
  double total = accumulated_online_;
  if (state_ == MachineState::kOnline) total += std::max(0.0, horizon - online_since_);
  return std::min(total, horizon);
}

core::SimTime Machine::ready_time() const {
  core::SimTime ready = engine_.now();
  if (running_) ready = running_->finish_at;
  for (const QueueEntry& entry : queue_) ready += entry.exec_seconds;
  return ready;
}

void Machine::enqueue(std::size_t task, double exec_seconds) {
  require(exec_seconds > 0.0, "Machine::enqueue: execution time must be > 0");
  require(has_queue_space(),
          [this] { return "Machine::enqueue: machine queue '" + name_ + "' saturated"; });
  task_state_->status[task] = workload::TaskStatus::kInMachineQueue;
  task_state_->machine[task] = static_cast<std::uint32_t>(id_);
  // A task that transferred first was assigned earlier; keep that timestamp.
  if (!core::time_set(task_state_->assignment_time[task])) {
    task_state_->assignment_time[task] = engine_.now();
  }
  queue_.push_back(QueueEntry{task, exec_seconds});
  if (!running_) start_next();
}

double Machine::checkpoint_write_estimate() const {
  return io_channel_ ? io_channel_->uncontended_write_seconds() : checkpoint_->cost;
}

double Machine::restart_read_estimate() const {
  return io_channel_ ? io_channel_->uncontended_read_seconds()
                     : checkpoint_->restart_cost;
}

double Machine::projected_run_seconds(const RunningEntry& run) const {
  double total = run.work_total;
  if (run.base_fraction > 0.0 && checkpoint_ && restart_read_estimate() > 0.0) {
    total += restart_read_estimate();
  }
  if (checkpoint_ && checkpoint_->interval > 0.0 &&
      run.work_total > checkpoint_->interval) {
    // One write per full interval; the final partial segment runs straight
    // to completion without a trailing checkpoint. Under a contended channel
    // this is the uncontended lower bound — ready_time is an estimate anyway.
    const double writes =
        std::ceil(run.work_total / checkpoint_->interval) - 1.0;
    total += writes * checkpoint_write_estimate();
  }
  return total;
}

void Machine::start_next() {
  require(!running_, "Machine::start_next while busy");
  if (queue_.empty()) return;
  QueueEntry entry = queue_.front();
  queue_.pop_front();

  const core::SimTime now = engine_.now();
  // Cold starts extend the execution by the model-load penalty; schedulers
  // plan on the warm EET, so the penalty is exactly the mis-estimation the
  // memory-allocation studies investigate.
  const double cold_penalty =
      model_cache_ ? model_cache_->on_execute(task_state_->type(entry.task)) : 0.0;
  RunningEntry run;
  run.task = entry.task;
  run.exec_seconds = entry.exec_seconds + cold_penalty;
  // Committed checkpoints travel with the task as a work fraction, so a
  // restart on a *different* machine resumes the remaining fraction at that
  // machine's own speed. Without the checkpoint columns nothing was ever
  // committed, so every start is from scratch.
  run.base_fraction =
      task_state_->has_checkpoint_column()
          ? std::clamp(task_state_->completed_fraction[entry.task], 0.0, 1.0)
          : 0.0;
  run.work_total = (1.0 - run.base_fraction) * run.exec_seconds;
  run.started_at = now;
  run.finish_at = now + projected_run_seconds(run);
  task_state_->status[entry.task] = workload::TaskStatus::kRunning;
  task_state_->start_time[entry.task] = now;
  running_ = run;

  if (checkpoint_ && run.base_fraction > 0.0 && restart_read_estimate() > 0.0) {
    running_->phase = RunPhase::kRestart;
    running_->phase_started_at = now;
    if (io_channel_) {
      running_->pending_event = core::kNoEvent;
      running_->io_transfer = io_channel_->begin_restart_read(
          task_state_->id(run.task), name_.c_str(), [this] { on_restart_loaded(); });
    } else {
      running_->pending_event = engine_.schedule_at(
          now + checkpoint_->restart_cost, core::EventPriority::kCompletion,
          core::EventLabel("restart task=", task_state_->id(run.task), " machine=",
                           name_.c_str()),
          [this] { on_restart_loaded(); });
    }
  } else {
    begin_work_segment();
  }
  // The freed queue slot becomes visible to batch schedulers immediately.
  if (listener_) listener_->on_slot_freed(id_);
}

void Machine::begin_work_segment() {
  require(running_.has_value(), "Machine::begin_work_segment with no running task");
  RunningEntry& run = *running_;
  const core::SimTime now = engine_.now();
  run.phase = RunPhase::kWork;
  run.phase_started_at = now;
  const double remaining = std::max(0.0, run.work_total - run.work_done);
  if (checkpoint_ && checkpoint_->interval > 0.0 && remaining > checkpoint_->interval) {
    run.pending_event = engine_.schedule_at(
        now + checkpoint_->interval, core::EventPriority::kCompletion,
        core::EventLabel("checkpoint task=", task_state_->id(run.task), " machine=",
                         name_.c_str()),
        [this] { on_checkpoint_write(); });
  } else {
    run.pending_event = engine_.schedule_at(
        now + remaining, core::EventPriority::kCompletion,
        core::EventLabel("complete task=", task_state_->id(run.task), " machine=",
                         name_.c_str()),
        [this] { on_completion(); });
  }
}

void Machine::on_checkpoint_write() {
  require(running_.has_value(), "Machine::on_checkpoint_write with no running task");
  RunningEntry& run = *running_;
  run.work_done += checkpoint_->interval;
  run.phase = RunPhase::kCheckpoint;
  run.phase_started_at = engine_.now();
  if (io_channel_) {
    // The write's wallclock is decided by the channel: it stretches with
    // concurrent transfers and, under kCooperative, includes admission wait.
    run.pending_event = core::kNoEvent;
    run.io_transfer = io_channel_->begin_checkpoint_write(
        task_state_->id(run.task), name_.c_str(), [this] { on_checkpoint_commit(); });
  } else if (checkpoint_->cost > 0.0) {
    run.pending_event = engine_.schedule_at(
        engine_.now() + checkpoint_->cost, core::EventPriority::kCompletion,
        core::EventLabel("commit task=", task_state_->id(run.task), " machine=",
                         name_.c_str()),
        [this] { on_checkpoint_commit(); });
  } else {
    on_checkpoint_commit();
  }
}

void Machine::on_checkpoint_commit() {
  require(running_.has_value(), "Machine::on_checkpoint_commit with no running task");
  RunningEntry& run = *running_;
  const core::SimTime now = engine_.now();
  const double segment = run.work_done - run.work_committed;
  run.work_committed = run.work_done;
  const std::size_t task = run.task;
  task_state_->useful_seconds[task] += segment;
  // Fixed path: charge exactly the configured cost (bit-identity with PR 2 —
  // `(a+c)-a` is not `c` in floats). Channel path: charge the elapsed
  // transfer time, which is what contention actually stretched.
  task_state_->add_checkpoint_overhead(
      task, io_channel_ ? std::max(0.0, now - run.phase_started_at) : checkpoint_->cost);
  run.io_transfer = fault::kNoTransfer;
  require(task_state_->has_checkpoint_column(),
          "Machine::on_checkpoint_commit: task state has no checkpoint columns");
  task_state_->completed_fraction[task] =
      std::min(1.0, run.base_fraction + run.work_committed / run.exec_seconds);
  task_state_->checkpoint_times[task].push_back(now);
  checkpoint_marks_.push_back(CheckpointMark{task_state_->id(task), now});
  begin_work_segment();
}

void Machine::on_restart_loaded() {
  require(running_.has_value(), "Machine::on_restart_loaded with no running task");
  task_state_->add_checkpoint_overhead(
      running_->task, io_channel_ ? std::max(0.0, engine_.now() - running_->phase_started_at)
                                  : checkpoint_->restart_cost);
  running_->io_transfer = fault::kNoTransfer;
  begin_work_segment();
}

void Machine::on_completion() {
  require(running_.has_value(), "Machine::on_completion with no running task");
  RunningEntry run = *running_;
  running_.reset();

  const core::SimTime now = engine_.now();
  const double elapsed = std::max(0.0, now - run.started_at);
  busy_seconds_ += elapsed;
  ++completed_;
  const std::size_t task = run.task;
  // The final (uncheckpointed) work segment is useful too: it completed.
  task_state_->useful_seconds[task] += std::max(0.0, run.work_total - run.work_committed);
  task_state_->machine_seconds[task] += elapsed;
  if (task_state_->has_checkpoint_column()) task_state_->completed_fraction[task] = 1.0;
  task_state_->finish(task, workload::TaskStatus::kCompleted, now);

  if (listener_) listener_->on_task_completed(task, id_);
  start_next();
}

double Machine::settle_aborted_run(const RunningEntry& run, core::SimTime now) const {
  const double elapsed = std::max(0.0, now - run.started_at);
  double work_executed = run.work_done;
  if (run.phase == RunPhase::kWork) {
    work_executed += std::max(0.0, now - run.phase_started_at);
  }
  work_executed = std::min(work_executed, run.work_total);
  const std::size_t task = run.task;
  // Useful (committed) work was already credited at each commit; only the
  // un-committed tail is lost. A partially written checkpoint or restart
  // phase is overhead that bought nothing, but it still occupied the machine.
  task_state_->add_lost_seconds(task, std::max(0.0, work_executed - run.work_committed));
  if (run.phase != RunPhase::kWork) {
    task_state_->add_checkpoint_overhead(task, std::max(0.0, now - run.phase_started_at));
  }
  task_state_->machine_seconds[task] += elapsed;
  return elapsed;
}

bool Machine::remove(std::size_t task) {
  if (running_ && running_->task == task) {
    RunningEntry run = *running_;
    running_.reset();
    engine_.cancel(run.pending_event);
    if (io_channel_ && run.io_transfer != fault::kNoTransfer) {
      io_channel_->cancel(run.io_transfer);
    }
    // Partial execution still consumed energy/time; the same waste settlement
    // as a crash keeps useful+lost+overhead == machine wallclock for deadline
    // drops and replica cancels too.
    busy_seconds_ += settle_aborted_run(run, engine_.now());
    ++dropped_;
    start_next();
    // start_next() only notifies when it actually started a queued task; with
    // an empty local queue the machine goes idle here and the slot that just
    // opened must still be advertised, or batch-queue tasks wait forever for
    // a scheduling trigger that never comes.
    if (!running_ && listener_) listener_->on_slot_freed(id_);
    return true;
  }
  const auto it = std::find_if(queue_.begin(), queue_.end(), [task](const QueueEntry& e) {
    return e.task == task;
  });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  ++dropped_;
  if (listener_) listener_->on_slot_freed(id_);
  return true;
}

std::vector<workload::TaskId> Machine::queued_task_ids() const {
  std::vector<workload::TaskId> ids;
  ids.reserve(queue_.size());
  for (const QueueEntry& entry : queue_) ids.push_back(task_state_->id(entry.task));
  return ids;
}

std::optional<workload::TaskId> Machine::running_task_id() const noexcept {
  if (!running_) return std::nullopt;
  return task_state_->id(running_->task);
}

MachineStats Machine::finalize_stats(core::SimTime horizon) const {
  MachineStats stats;
  stats.busy_seconds = busy_seconds_;
  if (running_) {
    // Count the in-flight task's execution up to the horizon.
    stats.busy_seconds += std::max(0.0, std::min(horizon, running_->finish_at) -
                                            running_->started_at);
  }
  stats.observed_seconds = horizon;
  stats.tasks_completed = completed_;
  stats.tasks_dropped = dropped_;
  stats.tasks_aborted = aborted_;
  stats.failures = failure_spans_.size();
  return stats;
}

double Machine::energy_joules(core::SimTime horizon) const {
  const MachineStats stats = finalize_stats(horizon);
  const double busy = std::min(stats.busy_seconds, horizon);
  // Idle power is drawn only while online; an offline machine consumes
  // nothing (the point of the autoscaler).
  const double idle = std::max(0.0, online_seconds(horizon) - busy);
  return busy * power_.busy_watts + idle * power_.idle_watts;
}

double Machine::dynamic_energy_joules(core::SimTime horizon) const {
  const MachineStats stats = finalize_stats(horizon);
  return std::min(stats.busy_seconds, horizon) * power_.busy_watts;
}

void Machine::reset() {
  queue_.clear();
  running_.reset();
  checkpoint_marks_.clear();
  state_ = MachineState::kOnline;
  online_since_ = 0.0;
  accumulated_online_ = 0.0;
  failure_spans_.clear();
  busy_seconds_ = 0.0;
  completed_ = 0;
  dropped_ = 0;
  aborted_ = 0;
}

}  // namespace e2c::machines
