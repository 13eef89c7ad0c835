#include "exp/worker_pool.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "exp/cell_codec.hpp"
#include "exp/job_codec.hpp"
#include "exp/scenario.hpp"
#include "exp/sim_pool.hpp"
#include "exp/spec_io.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"
#include "util/string_util.hpp"

namespace e2c::exp {

namespace {

/// Jobs a worker keeps warm at once. Eviction is FIFO and mirrored by the
/// supervisor, which only sends kLoadJob when its mirror says the worker
/// lacks the key — the two sides must stay in lockstep.
constexpr std::size_t kWorkerJobCacheCap = 4;

/// Backoff before requeueing a crashed or timed-out unit: kBackoffBase
/// seconds, times kBackoffFactor per further attempt, at most kMaxBackoff.
constexpr double kBackoffBase = 0.05;
constexpr double kBackoffFactor = 2.0;
constexpr double kMaxBackoff = 1.0;

volatile sig_atomic_t g_drain_requested = 0;

extern "C" void e2c_drain_handler(int) { g_drain_requested = 1; }

/// Fault-injection hooks for tests and the CI crash and serve lanes,
/// matched on "slot/rep" (e.g. "1/0"):
///   E2C_SERVE_TEST_CRASH_UNIT    raise(SIGKILL) on the unit's first attempt
///   E2C_SERVE_TEST_CRASH_ALWAYS  raise(SIGKILL) on every attempt — exhausts
///                                retries and degrades the cell to kFailed
///   E2C_SERVE_TEST_HANG_UNIT     loop in pause() forever (every attempt)
///   E2C_SERVE_TEST_UNIT_DELAY_MS sleep before computing any unit
bool unit_matches(const char* env, std::uint32_t slot, std::uint32_t rep) {
  if (env == nullptr) return false;
  return std::to_string(slot) + "/" + std::to_string(rep) == env;
}

CachedJob* find_cached(std::deque<CachedJob>& cache, std::uint64_t key) {
  for (CachedJob& job : cache) {
    if (job.key == key) return &job;
  }
  return nullptr;
}

[[noreturn]] void worker_main(int cmd_fd, int res_fd, const CachedJob* preload) {
  // Only the supervisor reacts to drain signals; a Ctrl-C on the foreground
  // process group must not kill in-flight units mid-drain.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  const char* crash_unit = std::getenv("E2C_SERVE_TEST_CRASH_UNIT");
  const char* crash_always = std::getenv("E2C_SERVE_TEST_CRASH_ALWAYS");
  const char* hang_unit = std::getenv("E2C_SERVE_TEST_HANG_UNIT");
  const char* delay_ms = std::getenv("E2C_SERVE_TEST_UNIT_DELAY_MS");
  std::deque<CachedJob> cache;
  if (preload != nullptr) cache.push_back(*preload);
  std::string frame;        // recycled inbound frame buffer
  util::ByteWriter writer;  // recycled outbound frame buffer
  for (;;) {
    bool got = false;
    try {
      got = util::read_frame_into(cmd_fd, frame, util::kMaxChannelFrame);
    } catch (...) {
      ::_exit(0);
    }
    if (!got) ::_exit(0);  // supervisor closed the command pipe
    try {
      switch (peek_job_frame(frame)) {
        case JobFrame::kShutdown:
          ::_exit(0);
        case JobFrame::kLoadJob: {
          const WorkerLoadJob load = decode_worker_load_job(frame);
          if (find_cached(cache, load.job_key) != nullptr) break;
          if (cache.size() >= kWorkerJobCacheCap) {
            // Evicting a job drops its Simulation leases too, so the lease
            // cache stays bounded by the job cache, not service lifetime.
            purge_simulations(cache.front().system.get());
            cache.pop_front();
          }
          cache.push_back(make_cached_job(
              load.job_key, spec_from_ini(util::IniFile::parse(load.ini_text, "serve job"))));
          break;
        }
        case JobFrame::kRunUnit: {
          const WorkerRunUnit unit = decode_worker_run_unit(frame);
          CachedJob* job = find_cached(cache, unit.job_key);
          if (job == nullptr) ::_exit(3);  // supervisor mirror out of sync
          if (unit.attempt == 0 && unit_matches(crash_unit, unit.slot, unit.rep)) {
            ::raise(SIGKILL);
          }
          if (unit_matches(crash_always, unit.slot, unit.rep)) {
            ::raise(SIGKILL);
          }
          if (unit_matches(hang_unit, unit.slot, unit.rep)) {
            for (;;) ::pause();
          }
          if (delay_ms != nullptr) {
            if (const auto parsed = util::parse_int(delay_ms); parsed && *parsed > 0) {
              ::usleep(static_cast<useconds_t>(*parsed) * 1000);
            }
          }
          WorkerUnitResult result;
          result.job_key = unit.job_key;
          result.slot = unit.slot;
          result.rep = unit.rep;
          result.attempt = unit.attempt;
          result.metrics_payload = encode_metrics_payload(run_unit(*job, unit.slot, unit.rep));
          writer.clear();
          encode_worker_unit_result(writer, result);
          util::write_frame_zc(res_fd, writer.bytes());
          break;
        }
        default:
          ::_exit(3);  // protocol violation
      }
    } catch (...) {
      // A throwing unit is a crash as far as supervision is concerned: the
      // supervisor requeues it and eventually fails the cell.
      ::_exit(3);
    }
  }
}

}  // namespace

std::vector<Slot> build_slots(const ExperimentSpec& spec) {
  std::vector<Slot> slots;
  slots.reserve(spec.policies.size() * spec.intensities.size());
  for (const std::string& policy : spec.policies) {
    for (const workload::Intensity intensity : spec.intensities) {
      slots.push_back({policy, intensity});
    }
  }
  return slots;
}

ScopedDrainHandlers::ScopedDrainHandlers(bool enable) : installed_(enable) {
  if (!installed_) return;
  g_drain_requested = 0;
  struct sigaction action {};
  action.sa_handler = e2c_drain_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGINT, &action, &old_int_);
  ::sigaction(SIGTERM, &action, &old_term_);
}

ScopedDrainHandlers::~ScopedDrainHandlers() {
  if (!installed_) return;
  ::sigaction(SIGINT, &old_int_, nullptr);
  ::sigaction(SIGTERM, &old_term_, nullptr);
}

bool ScopedDrainHandlers::requested() const noexcept {
  return installed_ && g_drain_requested != 0;
}

CachedJob make_cached_job(std::uint64_t key, ExperimentSpec spec) {
  CachedJob job;
  job.key = key;
  job.spec = std::move(spec);
  job.system = std::make_shared<const sched::SystemConfig>(job.spec.system);
  job.machine_types = machine_types_of(*job.system);
  job.slots = build_slots(job.spec);
  return job;
}

const std::shared_ptr<const workload::Workload>& CachedJob::trace(
    workload::Intensity intensity, std::uint32_t rep) {
  const std::pair<int, std::uint32_t> at{static_cast<int>(intensity), rep};
  if (const auto found = traces.find(at); found != traces.end()) return found->second;
  return traces[at] = std::make_shared<const workload::Workload>(
             detail::generate_trace(spec, machine_types, intensity, rep));
}

reports::Metrics run_unit(CachedJob& job, std::uint32_t slot, std::uint32_t rep) {
  const Slot& cell = job.slots.at(slot);
  const auto& trace = job.trace(cell.intensity, rep);
  sched::Simulation& simulation = lease_simulation(job.system, sched::make_policy(cell.policy));
  simulation.load(trace);
  simulation.run();
  return reports::compute_metrics(simulation);
}

void spawn_worker(Worker& worker, std::vector<Worker>& workers,
                  const std::vector<int>& close_in_child, const CachedJob* preload) {
  worker.cmd = std::make_unique<util::Pipe>();
  worker.res = std::make_unique<util::Pipe>();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw IoError(std::string("worker pool: fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    for (Worker& other : workers) {
      if (&other == &worker || !other.cmd) continue;
      other.cmd.reset();
      other.res.reset();
    }
    for (const int fd : close_in_child) ::close(fd);
    worker.cmd->close_write();
    worker.res->close_read();
    worker_main(worker.cmd->read_fd(), worker.res->write_fd(), preload);
  }
  worker.pid = pid;
  worker.cmd->close_read();
  worker.res->close_write();
  worker.alive = true;
  worker.busy = false;
  worker.loaded.clear();
  if (preload != nullptr) worker.loaded.push_back(preload->key);
}

bool dispatch(Worker& worker, const Unit& unit, std::uint64_t key, std::string_view ini_text,
              util::ByteWriter& writer, Clock::time_point now) {
  try {
    if (std::find(worker.loaded.begin(), worker.loaded.end(), key) == worker.loaded.end()) {
      if (worker.loaded.size() >= kWorkerJobCacheCap) worker.loaded.pop_front();
      writer.clear();
      encode_worker_load_job(writer, {key, std::string(ini_text)});
      util::write_frame_zc(worker.cmd->write_fd(), writer.bytes());
      worker.loaded.push_back(key);
    }
    writer.clear();
    encode_worker_run_unit(writer, {key, unit.slot, unit.rep, unit.attempt});
    util::write_frame_zc(worker.cmd->write_fd(), writer.bytes());
  } catch (const IoError&) {
    return false;
  }
  worker.busy = true;
  worker.unit = unit;
  worker.unit_key = key;
  worker.started = now;
  return true;
}

std::optional<reports::Metrics> read_unit_result(Worker& worker, short revents,
                                                 std::string& frame) {
  if ((revents & POLLIN) != 0) {
    try {
      if (util::read_frame_into(worker.res->read_fd(), frame, util::kMaxChannelFrame)) {
        const WorkerUnitResult result = decode_worker_unit_result(frame);
        // A worker answering off-script has lost the plot: recycle it and
        // recover whatever it was supposed to be computing.
        if (worker.busy && result.job_key == worker.unit_key &&
            result.slot == worker.unit.slot && result.rep == worker.unit.rep &&
            result.attempt == worker.unit.attempt) {
          reports::Metrics metrics = decode_metrics_payload(result.metrics_payload);
          worker.busy = false;
          return metrics;
        }
      }
    } catch (const Error&) {
      // Torn frame (crashed mid-write) or undecodable payload: a crash.
    }
  }
  ::kill(worker.pid, SIGKILL);
  return std::nullopt;
}

std::optional<Unit> reap(Worker& worker) {
  (void)util::wait_for_exit(worker.pid);
  worker.alive = false;
  const bool was_busy = worker.busy;
  worker.busy = false;
  worker.cmd.reset();
  worker.res.reset();
  worker.loaded.clear();
  if (!was_busy) return std::nullopt;
  return worker.unit;
}

std::vector<Unit> kill_overdue(std::vector<Worker>& workers, double unit_timeout,
                               Clock::time_point now) {
  std::vector<Unit> overdue;
  if (unit_timeout <= 0.0) return overdue;
  for (Worker& worker : workers) {
    if (!worker.alive || !worker.busy) continue;
    if (std::chrono::duration<double>(now - worker.started).count() < unit_timeout) continue;
    ::kill(worker.pid, SIGKILL);
    overdue.push_back(*reap(worker));
  }
  return overdue;
}

void dispatch_ready(std::vector<Worker>& workers, std::deque<Unit>& ready,
                    const UnitJobLookup& job_of, util::ByteWriter& writer,
                    Clock::time_point now) {
  for (Worker& worker : workers) {
    if (!worker.alive || worker.busy) continue;
    std::optional<UnitJob> job;
    auto next = ready.begin();
    while (next != ready.end()) {
      job = job_of(*next);
      if (!job) {
        next = ready.erase(next);
      } else if (next->release <= now) {
        break;
      } else {
        ++next;
      }
    }
    if (next == ready.end()) break;
    const Unit unit = *next;
    ready.erase(next);
    if (!dispatch(worker, unit, job->key, job->ini_text, writer, now)) {
      // Died while idle: the attempt never started, so it is not charged.
      ready.push_front(unit);
      (void)reap(worker);
    }
  }
}

int poll_timeout_ms(const std::vector<Worker>& workers, double unit_timeout,
                    const std::deque<Unit>& ready, Clock::time_point now) {
  int timeout_ms = 200;
  const auto clamp = [&](Clock::time_point when) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(when - now).count();
    timeout_ms = std::min<int>(timeout_ms, static_cast<int>(std::max<long long>(0, remaining)));
  };
  if (unit_timeout > 0.0) {
    const auto budget =
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(unit_timeout));
    for (const Worker& worker : workers) {
      if (worker.alive && worker.busy) clamp(worker.started + budget);
    }
  }
  const bool can_dispatch = std::any_of(workers.begin(), workers.end(),
                                        [](const Worker& w) { return !w.alive || !w.busy; });
  if (can_dispatch) {
    for (const Unit& unit : ready) clamp(unit.release);
  }
  return timeout_ms;
}

void shut_down(std::vector<Worker>& workers, util::ByteWriter& writer) {
  for (Worker& worker : workers) {
    if (!worker.alive) continue;
    writer.clear();
    encode_worker_shutdown(writer);
    try {
      util::write_frame_zc(worker.cmd->write_fd(), writer.bytes());
    } catch (const IoError&) {
      // Already dead; collected below.
    }
    worker.cmd.reset();
  }
  // A worker's exit closes its result pipe: wait for that EOF, discarding a
  // late result of a cancelled job's unit. Every procs sweep ends here, so
  // the wait must not sleep in fixed steps.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  for (Worker& worker : workers) {
    if (!worker.alive) continue;
    char sink[4096];
    for (;;) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
      pollfd fd{worker.res->read_fd(), POLLIN, 0};
      const int rc = left > 0 ? ::poll(&fd, 1, static_cast<int>(left)) : 0;
      if (rc < 0 && errno == EINTR) continue;
      if (rc > 0) {
        const ssize_t got = ::read(fd.fd, sink, sizeof sink);
        if (got > 0 || (got < 0 && errno == EINTR)) continue;
        if (got == 0) break;  // EOF: the worker is exiting
      }
      ::kill(worker.pid, SIGKILL);  // wedged past the deadline, or a pipe error
      break;
    }
    (void)util::wait_for_exit(worker.pid);
    worker.alive = false;
    worker.res.reset();
  }
}

void kill_all(std::vector<Worker>& workers) noexcept {
  for (Worker& worker : workers) {
    if (!worker.alive) continue;
    ::kill(worker.pid, SIGKILL);
    (void)util::wait_for_exit(worker.pid);
    worker.alive = false;
  }
}

UnitLedger::UnitLedger(std::uint64_t job_id, std::vector<Slot> slots, std::uint32_t reps,
                       RequeuePolicy retry)
    : job_id_(job_id),
      slots_(std::move(slots)),
      reps_(reps),
      retry_(retry),
      metrics_(slots_.size() * reps),
      remaining_(slots_.size(), reps),
      failed_(slots_.size(), 0),
      slot_retries_(slots_.size(), 0) {}

void UnitLedger::queue_slot(std::uint32_t slot, Clock::time_point now,
                            std::deque<Unit>& ready) const {
  for (std::uint32_t rep = 0; rep < reps_; ++rep) ready.push_back({job_id_, slot, rep, 0, now});
}

std::optional<CellResult> UnitLedger::complete(const Unit& unit, reports::Metrics metrics) {
  if (failed_[unit.slot] != 0) return std::nullopt;
  auto& stored = metrics_[unit.slot * reps_ + unit.rep];
  if (stored.has_value()) return std::nullopt;  // a late retry landed twice
  stored = std::move(metrics);
  if (--remaining_[unit.slot] != 0) return std::nullopt;
  CellResult cell;
  cell.policy = slots_[unit.slot].policy;
  cell.intensity = slots_[unit.slot].intensity;
  cell.runs.reserve(reps_);
  for (std::uint32_t rep = 0; rep < reps_; ++rep) {
    cell.runs.push_back(std::move(*metrics_[unit.slot * reps_ + rep]));
    metrics_[unit.slot * reps_ + rep].reset();
  }
  cell.attempts = 1 + slot_retries_[unit.slot];
  return cell;
}

std::optional<CellResult> UnitLedger::charge(const Unit& unit, std::deque<Unit>& ready,
                                             Clock::time_point now) {
  if (failed_[unit.slot] != 0) return std::nullopt;
  if (unit.attempt < retry_.max_retries) {
    ++retries_;
    ++slot_retries_[unit.slot];
    const double backoff =
        std::min(kMaxBackoff,
                 kBackoffBase * std::pow(kBackoffFactor, static_cast<double>(unit.attempt)));
    ready.push_back({job_id_, unit.slot, unit.rep, unit.attempt + 1,
                     now + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(backoff))});
    return std::nullopt;
  }
  // Retries exhausted: the whole cell degrades to kFailed and its pending
  // units are dropped; units still in flight are ignored when they land.
  failed_[unit.slot] = 1;
  ready.erase(std::remove_if(ready.begin(), ready.end(),
                             [&](const Unit& pending) {
                               return pending.job_id == job_id_ && pending.slot == unit.slot;
                             }),
              ready.end());
  for (std::uint32_t rep = 0; rep < reps_; ++rep) metrics_[unit.slot * reps_ + rep].reset();
  CellResult failed;
  failed.policy = slots_[unit.slot].policy;
  failed.intensity = slots_[unit.slot].intensity;
  failed.status = CellStatus::kFailed;
  failed.attempts = unit.attempt + 1;
  return failed;
}

SweepCells::SweepCells(std::size_t cells_total, std::map<std::size_t, CellResult> resumed,
                       std::optional<SweepJournal> journal, ProgressFn progress)
    : cells_(cells_total),
      resumed_(resumed.size()),
      owed_(cells_total - resumed.size()),
      journal_(std::move(journal)),
      progress_(std::move(progress)) {
  for (auto& [slot, cell] : resumed) cells_[slot] = std::move(cell);
}

void SweepCells::count(std::uint32_t slot, const CellResult& cell) {
  ++(cell.status == CellStatus::kOk ? completed_ : failed_);
  ++done_;
  if (journal_) journal_->append(slot, cell);
}

void SweepCells::record(std::uint32_t slot, CellResult cell) {
  count(slot, cell);
  const CellResult& kept = *(cells_[slot] = std::move(cell));
  if (progress_) progress_(done_, owed_, kept);
}

ExperimentResult SweepCells::result(const ExperimentSpec& spec, std::size_t workers,
                                    std::size_t retries) && {
  ExperimentResult result;
  result.spec = spec;
  result.health = {.completed_cells = resumed_ + completed_,
                   .failed_cells = failed_,
                   .retries = retries,
                   .resumed_cells = resumed_,
                   .workers = workers,
                   .drained = done_ < owed_};
  result.cells.reserve(cells_.size());
  for (auto& cell : cells_) {
    if (cell) result.cells.push_back(std::move(*cell));
  }
  return result;
}

}  // namespace e2c::exp
