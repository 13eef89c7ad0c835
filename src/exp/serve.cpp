#include "exp/serve.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/cell_codec.hpp"
#include "exp/job_codec.hpp"
#include "exp/journal.hpp"
#include "exp/scenario.hpp"
#include "exp/sim_pool.hpp"
#include "exp/spec_io.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/ini.hpp"
#include "util/string_util.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace e2c::exp {

namespace {

using Clock = std::chrono::steady_clock;

/// Jobs a worker keeps warm at once. Eviction is FIFO and mirrored by the
/// supervisor, which only sends kLoadJob when its mirror says the worker
/// lacks the key — the two sides must stay in lockstep.
constexpr std::size_t kWorkerJobCacheCap = 4;

/// Payload cap for a client's submit frame: INI text, so 1 MiB is ample.
/// Any client can connect, so its length prefix is not trusted.
constexpr std::size_t kMaxSubmitFrame = std::size_t{1} << 20;

/// One (policy, intensity) cell in (policy-major, intensity-minor) order —
/// the same slot layout as the process backend, so the client reassembles
/// cells into the canonical order by slot index alone.
struct Slot {
  std::string policy;
  workload::Intensity intensity = workload::Intensity::kLow;
};

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

// ---- drain signals (the process-pool pattern; see process_pool.cpp) ------

volatile sig_atomic_t g_serve_drain_requested = 0;

extern "C" void e2c_serve_drain_handler(int) { g_serve_drain_requested = 1; }

class ScopedDrainHandlers {
 public:
  explicit ScopedDrainHandlers(bool enable) : installed_(enable) {
    if (!installed_) return;
    g_serve_drain_requested = 0;
    struct sigaction action {};
    action.sa_handler = e2c_serve_drain_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: poll() must wake with EINTR
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedDrainHandlers() {
    if (!installed_) return;
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedDrainHandlers(const ScopedDrainHandlers&) = delete;
  ScopedDrainHandlers& operator=(const ScopedDrainHandlers&) = delete;

 private:
  bool installed_;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

// ---- socket plumbing -----------------------------------------------------

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require_input(path.size() < sizeof(addr.sun_path),
                "socket path '" + path + "' is too long (max " +
                    std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Closes an fd on scope exit; release() keeps it open.
class FdGuard {
 public:
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// Binds and listens on \p path. A stale socket file (nothing accepting:
/// connect says ECONNREFUSED) is unlinked and rebound; a live service or a
/// non-socket file in the way is the caller's mistake → InputError.
int make_listen_socket(const std::string& path) {
  const sockaddr_un addr = socket_address(path);
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && !S_ISSOCK(st.st_mode)) {
    throw InputError("--serve: '" + path +
                     "' exists and is not a socket — refusing to replace it");
  }
  // Nonblocking listener: a pending connection that is aborted between
  // poll() and accept() must make accept fail with EAGAIN, not block the
  // supervisor until the next client shows up. Accepted connections do not
  // inherit the flag; they rely on SO_RCVTIMEO/SO_SNDTIMEO instead.
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("--serve: socket() failed: ") + std::strerror(errno));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EADDRINUSE) {
      throw IoError("--serve: cannot bind '" + path + "': " + std::strerror(errno));
    }
    // Live service, or stale socket from a dead one? Probing disambiguates.
    FdGuard probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (probe.get() >= 0 &&
        ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      throw InputError("--serve: a live service is already listening on '" + path + "'");
    }
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw IoError("--serve: cannot rebind stale socket '" + path +
                    "': " + std::strerror(errno));
    }
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    ::unlink(path.c_str());
    throw IoError("--serve: listen on '" + path + "' failed: " + std::strerror(errno));
  }
  return fd.release();
}

int connect_to_service(const std::string& path) {
  const sockaddr_un addr = socket_address(path);
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("--submit: socket() failed: ") + std::strerror(errno));
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    if (err == ENOENT) {
      throw InputError("--submit: no service socket at '" + path +
                       "' (start one with `e2c_experiment --serve " + path + "`)");
    }
    if (err == ECONNREFUSED) {
      throw InputError("--submit: socket '" + path +
                       "' is stale — no service is listening on it (restart "
                       "`e2c_experiment --serve`)");
    }
    throw IoError("--submit: cannot connect to '" + path + "': " + std::strerror(err));
  }
  return fd.release();
}

// ---- worker side ---------------------------------------------------------

/// Fault-injection hooks for tests and the CI serve lane, matched on
/// "slot/rep" (e.g. "1/0"):
///   E2C_SERVE_TEST_CRASH_UNIT    raise(SIGKILL) on the unit's first attempt
///   E2C_SERVE_TEST_CRASH_ALWAYS  raise(SIGKILL) on every attempt — exhausts
///                                retries and degrades the cell to kFailed
///   E2C_SERVE_TEST_HANG_UNIT     loop in pause() forever (every attempt)
///   E2C_SERVE_TEST_UNIT_DELAY_MS sleep before computing any unit
bool unit_matches(const char* env, std::uint32_t slot, std::uint32_t rep) {
  if (env == nullptr) return false;
  return std::to_string(slot) + "/" + std::to_string(rep) == env;
}

/// A job a worker keeps warm: parsed spec, its SystemConfig (the sim_pool
/// lease key), and every paired trace generated so far. Two submissions with
/// identical config text share one entry — that is the repeat-submission
/// fast path: no parse, no trace regeneration, warm Simulation leases.
struct CachedJob {
  std::uint64_t key = 0;
  ExperimentSpec spec;
  std::shared_ptr<const sched::SystemConfig> system;
  std::vector<hetero::MachineTypeId> machine_types;
  std::vector<Slot> slots;
  /// Paired traces by (intensity, replication) — shared across every policy
  /// slot of the job, exactly like the shared data plane.
  std::map<std::pair<int, std::uint32_t>, std::shared_ptr<const workload::Workload>>
      traces;
};

CachedJob* find_cached(std::deque<CachedJob>& cache, std::uint64_t key) {
  for (CachedJob& job : cache) {
    if (job.key == key) return &job;
  }
  return nullptr;
}

[[noreturn]] void serve_worker_main(int cmd_fd, int res_fd) {
  // Only the supervisor reacts to drain signals; a Ctrl-C on the foreground
  // process group must not kill in-flight units mid-drain.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  const char* crash_unit = std::getenv("E2C_SERVE_TEST_CRASH_UNIT");
  const char* crash_always = std::getenv("E2C_SERVE_TEST_CRASH_ALWAYS");
  const char* hang_unit = std::getenv("E2C_SERVE_TEST_HANG_UNIT");
  const char* delay_ms = std::getenv("E2C_SERVE_TEST_UNIT_DELAY_MS");
  std::deque<CachedJob> cache;
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
          CachedJob job;
          job.key = load.job_key;
          job.spec = spec_from_ini(util::IniFile::parse(load.ini_text, "serve job"));
          job.system = std::make_shared<const sched::SystemConfig>(job.spec.system);
          job.machine_types = machine_types_of(*job.system);
          job.slots = build_slots(job.spec);
          cache.push_back(std::move(job));
          break;
        }
        case JobFrame::kRunUnit: {
          const WorkerRunUnit unit = decode_worker_run_unit(frame);
          CachedJob* job = find_cached(cache, unit.job_key);
          if (job == nullptr) ::_exit(3);  // supervisor mirror out of sync
          const Slot& slot = job->slots.at(unit.slot);
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
          auto& trace = job->traces[{static_cast<int>(slot.intensity), unit.rep}];
          if (!trace) {
            trace = std::make_shared<const workload::Workload>(detail::generate_trace(
                job->spec, job->machine_types, slot.intensity, unit.rep));
          }
          sched::Simulation& simulation =
              lease_simulation(job->system, sched::make_policy(slot.policy));
          simulation.load(trace);
          simulation.run();
          WorkerUnitResult result;
          result.job_key = unit.job_key;
          result.slot = unit.slot;
          result.rep = unit.rep;
          result.attempt = unit.attempt;
          result.metrics_payload =
              encode_metrics_payload(reports::compute_metrics(simulation));
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

// ---- supervisor side -----------------------------------------------------

/// One (job, slot, replication) work item awaiting dispatch.
struct Unit {
  std::uint64_t job_id = 0;
  std::uint32_t slot = 0;
  std::uint32_t rep = 0;
  std::uint32_t attempt = 0;
  Clock::time_point release;  ///< backoff: not dispatchable before this
};

struct ServeWorker {
  pid_t pid = -1;
  std::unique_ptr<util::Pipe> cmd;  ///< supervisor writes load/run frames
  std::unique_ptr<util::Pipe> res;  ///< supervisor reads unit results
  bool alive = false;
  bool busy = false;
  Unit unit{};  ///< in-flight unit when busy
  std::uint64_t unit_key = 0;
  Clock::time_point started;
  /// Supervisor's mirror of the worker's job cache (FIFO of job keys).
  std::deque<std::uint64_t> loaded;
};

/// One admitted sweep: its parsed spec, the client connection streaming
/// results, and per-slot completion state.
struct ServeJob {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::string ini_text;
  ExperimentSpec spec;
  std::vector<Slot> slots;
  std::uint32_t reps = 0;
  int client_fd = -1;
  bool client_dead = false;
  std::vector<std::optional<reports::Metrics>> metrics;  ///< slot-major × rep
  std::vector<std::uint32_t> slot_remaining;             ///< reps left per slot
  std::vector<char> slot_failed;
  std::vector<std::uint32_t> slot_retries;
  std::size_t cells_done = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::optional<SweepJournal> journal;
};

void spawn_serve_worker(ServeWorker& worker, std::vector<ServeWorker>& workers,
                        const std::vector<int>& close_in_child) {
  worker.cmd = std::make_unique<util::Pipe>();
  worker.res = std::make_unique<util::Pipe>();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw IoError(std::string("serve: fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop sibling pipe ends (a sibling holding a dead worker's
    // result pipe would suppress the EOF used for crash detection) and the
    // supervisor's sockets (the listener and every client connection — a
    // worker holding a client fd would suppress client-hangup detection).
    for (ServeWorker& other : workers) {
      if (&other == &worker || !other.cmd) continue;
      other.cmd.reset();
      other.res.reset();
    }
    for (const int fd : close_in_child) ::close(fd);
    worker.cmd->close_write();
    worker.res->close_read();
    serve_worker_main(worker.cmd->read_fd(), worker.res->write_fd());
  }
  worker.pid = pid;
  worker.cmd->close_read();
  worker.res->close_write();
  worker.alive = true;
  worker.busy = false;
  worker.loaded.clear();
}

}  // namespace

std::size_t run_serve(const ServeOptions& options) {
  const std::size_t pool_size = util::ThreadPool::resolve_worker_count(options.workers);
  const std::size_t backlog = std::max<std::size_t>(1, options.backlog);
  const auto say = [&](const std::string& message) {
    if (options.log) options.log(message);
  };

  const int listen_fd = make_listen_socket(options.socket_path);
  ScopedDrainHandlers drain_handlers(options.drain_on_signals);
  util::SigpipeGuard sigpipe_guard;

  std::vector<ServeWorker> workers(pool_size);
  std::map<std::uint64_t, ServeJob> jobs;
  std::deque<Unit> ready;
  std::uint64_t next_job_id = 1;
  std::size_t jobs_served = 0;
  std::string frame;        // recycled inbound frame buffer
  util::ByteWriter writer;  // recycled outbound frame buffer

  /// Fds the supervisor owns that forked workers must not inherit.
  const auto child_close_list = [&] {
    std::vector<int> fds{listen_fd};
    for (const auto& [id, job] : jobs) {
      if (job.client_fd >= 0) fds.push_back(job.client_fd);
    }
    return fds;
  };

  /// Records a finished (ok or failed) cell: journal, stream to the client,
  /// bump counters. A write failure marks the client dead; the job is
  /// cancelled at the next finalize pass.
  const auto emit_cell = [&](ServeJob& job, std::uint32_t slot, const CellResult& cell) {
    if (cell.status == CellStatus::kOk) {
      ++job.completed;
    } else {
      ++job.failed;
    }
    ++job.cells_done;
    if (job.journal) job.journal->append(slot, cell);
    if (job.client_dead) return;
    JobCell cell_frame;
    cell_frame.slot = slot;
    cell_frame.cells_done = static_cast<std::uint32_t>(job.cells_done);
    cell_frame.cells_total = static_cast<std::uint32_t>(job.slots.size());
    cell_frame.cell_payload = encode_cell(cell);
    writer.clear();
    encode_job_cell(writer, cell_frame);
    try {
      util::write_frame_zc(job.client_fd, writer.bytes());
    } catch (const IoError&) {
      job.client_dead = true;
    }
  };

  const auto handle_unit_failure = [&](ServeJob& job, const Unit& unit) {
    if (job.slot_failed[unit.slot] != 0) return;  // cell already given up on
    if (unit.attempt < options.max_retries) {
      ++job.retries;
      ++job.slot_retries[unit.slot];
      const double backoff =
          std::min(options.max_backoff,
                   options.backoff_base * std::pow(options.backoff_factor,
                                                   static_cast<double>(unit.attempt)));
      ready.push_back({job.id, unit.slot, unit.rep, unit.attempt + 1,
                       Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(backoff))});
      say("job " + std::to_string(job.id) + ": unit " + std::to_string(unit.slot) +
          "/" + std::to_string(unit.rep) + " failed (attempt " +
          std::to_string(unit.attempt + 1) + "), requeued");
    } else {
      // Retries exhausted: the whole cell degrades to kFailed. The failed
      // cell still flows through emit_cell so the journal records it, the
      // client receives it, and cells_done advances — otherwise the job
      // could never finalize and both sides would wait forever.
      job.slot_failed[unit.slot] = 1;
      ready.erase(std::remove_if(ready.begin(), ready.end(),
                                 [&](const Unit& pending) {
                                   return pending.job_id == job.id &&
                                          pending.slot == unit.slot;
                                 }),
                  ready.end());
      for (std::uint32_t rep = 0; rep < job.reps; ++rep) {
        job.metrics[unit.slot * job.reps + rep].reset();
      }
      CellResult failed;
      failed.policy = job.slots[unit.slot].policy;
      failed.intensity = job.slots[unit.slot].intensity;
      failed.status = CellStatus::kFailed;
      failed.attempts = unit.attempt + 1;
      say("job " + std::to_string(job.id) + ": cell " + std::to_string(unit.slot) +
          " failed after " + std::to_string(unit.attempt + 1) + " attempts");
      emit_cell(job, unit.slot, failed);
    }
  };

  /// A unit result completed its slot: assemble the cell in replication
  /// order — bit-exact Metrics, same merge order as every other backend.
  const auto complete_slot = [&](ServeJob& job, std::uint32_t slot) {
    CellResult cell;
    cell.policy = job.slots[slot].policy;
    cell.intensity = job.slots[slot].intensity;
    cell.runs.reserve(job.reps);
    for (std::uint32_t rep = 0; rep < job.reps; ++rep) {
      cell.runs.push_back(std::move(*job.metrics[slot * job.reps + rep]));
      job.metrics[slot * job.reps + rep].reset();
    }
    cell.attempts = 1 + job.slot_retries[slot];
    emit_cell(job, slot, cell);
  };

  const auto reap = [&](ServeWorker& worker, bool charge_attempt) {
    (void)util::wait_for_exit(worker.pid);
    worker.alive = false;
    const bool was_busy = worker.busy;
    worker.busy = false;
    worker.cmd.reset();
    worker.res.reset();
    worker.loaded.clear();
    if (was_busy && charge_attempt) {
      if (const auto it = jobs.find(worker.unit.job_id); it != jobs.end()) {
        handle_unit_failure(it->second, worker.unit);
      }
    }
  };

  const auto kill_all = [&] {
    for (ServeWorker& worker : workers) {
      if (!worker.alive) continue;
      ::kill(worker.pid, SIGKILL);
      (void)util::wait_for_exit(worker.pid);
      worker.alive = false;
    }
  };

  /// Closes client connections and erases jobs that are finished (send
  /// kDone) or abandoned (drop their pending units).
  const auto finalize_jobs = [&] {
    for (auto it = jobs.begin(); it != jobs.end();) {
      ServeJob& job = it->second;
      if (job.client_dead) {
        ready.erase(std::remove_if(
                        ready.begin(), ready.end(),
                        [&](const Unit& unit) { return unit.job_id == job.id; }),
                    ready.end());
        if (job.client_fd >= 0) ::close(job.client_fd);
        say("job " + std::to_string(job.id) + ": client went away, cancelled");
        it = jobs.erase(it);
        continue;
      }
      if (job.cells_done == job.slots.size()) {
        JobDone done;
        done.completed_cells = job.completed;
        done.failed_cells = job.failed;
        done.retries = job.retries;
        done.workers = pool_size;
        writer.clear();
        encode_job_done(writer, done);
        try {
          util::write_frame_zc(job.client_fd, writer.bytes());
        } catch (const IoError&) {
          // Result already journaled; nothing left to salvage for a client
          // that vanished between the last cell and the done frame.
        }
        ::close(job.client_fd);
        ++jobs_served;
        say("job " + std::to_string(job.id) + " done: " + std::to_string(job.completed) +
            " ok, " + std::to_string(job.failed) + " failed, " +
            std::to_string(job.retries) + " retries");
        it = jobs.erase(it);
        continue;
      }
      ++it;
    }
  };

  /// One accept(): read the submit frame, admit or busy-reject, queue units.
  const auto accept_client = [&](bool draining) {
    const int raw_fd = ::accept(listen_fd, nullptr, nullptr);
    if (raw_fd < 0) return;
    FdGuard fd(raw_fd);
    // A stalled client must not wedge the single-threaded supervisor in
    // either direction: a submitter that never finishes its frame (read
    // side) or a receiver that stops draining its socket buffer (write
    // side, e.g. SIGSTOPed). The timeouts stick to the fd, so every later
    // emit_cell / done-frame write is covered too; a timed-out write throws
    // IoError, which marks the client dead exactly like a hangup.
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    try {
      if (!util::read_frame_into(fd.get(), frame, kMaxSubmitFrame)) return;
      if (peek_job_frame(frame) != JobFrame::kSubmit) return;
      JobSubmit submit = decode_job_submit(frame);
      if (draining || jobs.size() >= backlog) {
        JobBusy busy;
        busy.in_service = static_cast<std::uint32_t>(jobs.size());
        busy.backlog = static_cast<std::uint32_t>(backlog);
        busy.draining = draining ? 1 : 0;
        writer.clear();
        encode_job_busy(writer, busy);
        util::write_frame_zc(fd.get(), writer.bytes());
        say(draining ? "rejected submit: draining"
                     : "rejected submit: backlog full (" + std::to_string(jobs.size()) +
                           "/" + std::to_string(backlog) + ")");
        return;
      }
      ServeJob job;
      try {
        job.spec = spec_from_ini(util::IniFile::parse(submit.ini_text, "submitted config"));
        require_input(!job.spec.policies.empty(), "submitted config: no policies");
        require_input(!job.spec.intensities.empty(), "submitted config: no intensities");
        require_input(job.spec.replications > 0,
                      "submitted config: replications must be > 0");
        for (const std::string& policy : job.spec.policies) {
          require_input(sched::PolicyRegistry::instance().contains(policy),
                        "submitted config: unknown policy '" + policy + "'");
        }
        if (!options.journal_prefix.empty()) {
          job.journal.emplace(SweepJournal::create(
              options.journal_prefix + ".job" + std::to_string(next_job_id),
              spec_digest(job.spec),
              job.spec.policies.size() * job.spec.intensities.size()));
        }
      } catch (const std::exception& rejection) {
        writer.clear();
        encode_job_error(writer, {rejection.what()});
        util::write_frame_zc(fd.get(), writer.bytes());
        say(std::string("rejected submit: ") + rejection.what());
        return;
      }
      job.id = next_job_id++;
      job.key = job_key_of(submit.ini_text);
      job.ini_text = std::move(submit.ini_text);
      job.slots = build_slots(job.spec);
      job.reps = static_cast<std::uint32_t>(job.spec.replications);
      job.metrics.assign(job.slots.size() * job.reps, std::nullopt);
      job.slot_remaining.assign(job.slots.size(), job.reps);
      job.slot_failed.assign(job.slots.size(), 0);
      job.slot_retries.assign(job.slots.size(), 0);
      JobAccepted accepted;
      accepted.job_id = job.id;
      accepted.cells_total = static_cast<std::uint32_t>(job.slots.size());
      accepted.replications = job.reps;
      accepted.workers = static_cast<std::uint32_t>(pool_size);
      writer.clear();
      encode_job_accepted(writer, accepted);
      util::write_frame_zc(fd.get(), writer.bytes());
      const auto now = Clock::now();
      for (std::uint32_t slot = 0; slot < job.slots.size(); ++slot) {
        for (std::uint32_t rep = 0; rep < job.reps; ++rep) {
          ready.push_back({job.id, slot, rep, 0, now});
        }
      }
      say("accepted job " + std::to_string(job.id) + ": " +
          std::to_string(job.slots.size()) + " cells x " + std::to_string(job.reps) +
          " reps (" + std::to_string(jobs.size() + 1) + "/" + std::to_string(backlog) +
          " in service)");
      job.client_fd = fd.release();
      jobs.emplace(job.id, std::move(job));
    } catch (const Error&) {
      // Unreadable or unparsable submit conversation: drop the connection.
    }
  };

  /// Next dispatchable unit; units of cancelled jobs are swept out here.
  const auto pop_ready = [&](Clock::time_point now) -> std::optional<Unit> {
    for (auto it = ready.begin(); it != ready.end();) {
      if (jobs.find(it->job_id) == jobs.end()) {
        it = ready.erase(it);
        continue;
      }
      if (it->release <= now) {
        const Unit unit = *it;
        ready.erase(it);
        return unit;
      }
      ++it;
    }
    return std::nullopt;
  };

  const auto handle_worker_result = [&](ServeWorker& worker) {
    const WorkerUnitResult result = decode_worker_unit_result(frame);
    if (!worker.busy || result.job_key != worker.unit_key ||
        result.slot != worker.unit.slot || result.rep != worker.unit.rep ||
        result.attempt != worker.unit.attempt) {
      // A worker answering off-script has lost the plot; recycle it and
      // recover whatever it was supposed to be computing.
      ::kill(worker.pid, SIGKILL);
      reap(worker, /*charge_attempt=*/true);
      return;
    }
    worker.busy = false;
    const auto it = jobs.find(worker.unit.job_id);
    if (it == jobs.end()) return;  // job cancelled while the unit was in flight
    ServeJob& job = it->second;
    if (job.slot_failed[result.slot] != 0) return;  // cell already failed
    auto& cell_metrics = job.metrics[result.slot * job.reps + result.rep];
    if (cell_metrics.has_value()) return;  // duplicate (late retry landed twice)
    cell_metrics = decode_metrics_payload(result.metrics_payload);
    if (--job.slot_remaining[result.slot] == 0) complete_slot(job, result.slot);
  };

  say("listening on " + options.socket_path + ": " + std::to_string(pool_size) +
      " workers, backlog " + std::to_string(backlog));

  try {
    {
      const std::vector<int> extra = child_close_list();
      for (ServeWorker& worker : workers) {
        spawn_serve_worker(worker, workers, extra);
      }
    }

    for (;;) {
      const bool draining = g_serve_drain_requested != 0;
      if (draining && jobs.empty()) break;

      // Keep the resident pool at strength while there is (or may soon be)
      // work; a drain still respawns, because admitted jobs must finish.
      if (!jobs.empty() || !ready.empty()) {
        std::optional<std::vector<int>> extra;
        for (ServeWorker& worker : workers) {
          if (worker.alive) continue;
          if (!extra) extra = child_close_list();
          spawn_serve_worker(worker, workers, *extra);
          say("respawned worker (pid " + std::to_string(worker.pid) + ")");
        }
      }

      // Dispatch released units to idle workers, loading the job into the
      // worker's warm cache first when the mirror says it is absent.
      const auto now = Clock::now();
      for (ServeWorker& worker : workers) {
        if (!worker.alive || worker.busy) continue;
        const auto unit = pop_ready(now);
        if (!unit) break;
        ServeJob& job = jobs.at(unit->job_id);
        try {
          if (std::find(worker.loaded.begin(), worker.loaded.end(), job.key) ==
              worker.loaded.end()) {
            if (worker.loaded.size() >= kWorkerJobCacheCap) worker.loaded.pop_front();
            writer.clear();
            encode_worker_load_job(writer, {job.key, job.ini_text});
            util::write_frame_zc(worker.cmd->write_fd(), writer.bytes());
            worker.loaded.push_back(job.key);
          }
          writer.clear();
          encode_worker_run_unit(writer, {job.key, unit->slot, unit->rep, unit->attempt});
          util::write_frame_zc(worker.cmd->write_fd(), writer.bytes());
        } catch (const IoError&) {
          // Worker died while idle (external kill): the attempt never
          // started, so it is not charged against the cell.
          ready.push_front(*unit);
          reap(worker, /*charge_attempt=*/false);
          continue;
        }
        worker.busy = true;
        worker.unit = *unit;
        worker.unit_key = job.key;
        worker.started = now;
      }

      // Poll timeout: nearest of unit deadline, backoff release, or a 200 ms
      // responsiveness cap (drain requests must not wait long).
      int timeout_ms = 200;
      const auto clamp_timeout = [&](Clock::time_point when) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(when - Clock::now())
                .count();
        timeout_ms = std::max(
            0, std::min<int>(timeout_ms,
                             static_cast<int>(std::max<long long>(0, remaining))));
      };
      if (options.cell_timeout > 0.0) {
        for (const ServeWorker& worker : workers) {
          if (worker.alive && worker.busy) {
            clamp_timeout(worker.started +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options.cell_timeout)));
          }
        }
      }
      for (const Unit& unit : ready) clamp_timeout(unit.release);

      std::vector<pollfd> fds;
      std::vector<ServeWorker*> worker_of;
      std::vector<std::uint64_t> job_of;
      fds.push_back({listen_fd, POLLIN, 0});
      worker_of.push_back(nullptr);
      job_of.push_back(0);
      for (ServeWorker& worker : workers) {
        if (!worker.alive) continue;
        fds.push_back({worker.res->read_fd(), POLLIN, 0});
        worker_of.push_back(&worker);
        job_of.push_back(0);
      }
      for (auto& [id, job] : jobs) {
        if (job.client_fd < 0 || job.client_dead) continue;
        fds.push_back({job.client_fd, POLLIN, 0});
        worker_of.push_back(nullptr);
        job_of.push_back(id);
      }

      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      if (rc < 0 && errno != EINTR) {
        throw IoError(std::string("serve: poll failed: ") + std::strerror(errno));
      }

      if (rc > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents == 0) continue;
          if (fds[i].fd == listen_fd) {
            accept_client(draining);
            continue;
          }
          if (ServeWorker* worker = worker_of[i]; worker != nullptr) {
            if (!worker->alive) continue;  // reaped earlier this sweep
            bool dead = false;
            if ((fds[i].revents & POLLIN) != 0) {
              try {
                if (util::read_frame_into(worker->res->read_fd(), frame,
                                          util::kMaxChannelFrame)) {
                  handle_worker_result(*worker);
                } else {
                  dead = true;
                }
              } catch (const IoError&) {
                dead = true;  // torn frame: the worker crashed mid-write
              } catch (const InputError&) {
                ::kill(worker->pid, SIGKILL);
                dead = true;  // undecodable payload: treat like a crash
              }
            } else if ((fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
              dead = true;
            }
            if (dead && worker->alive) reap(*worker, /*charge_attempt=*/true);
            continue;
          }
          // Client connection: submitters never speak after kSubmit, so any
          // readable event is a hangup (or a protocol breach) — cancel.
          if (const auto it = jobs.find(job_of[i]); it != jobs.end()) {
            it->second.client_dead = true;
          }
        }
      }

      // Per-unit wall-clock timeout: SIGKILL and requeue.
      if (options.cell_timeout > 0.0) {
        const auto deadline_now = Clock::now();
        for (ServeWorker& worker : workers) {
          if (!worker.alive || !worker.busy) continue;
          const double elapsed =
              std::chrono::duration<double>(deadline_now - worker.started).count();
          if (elapsed >= options.cell_timeout) {
            say("job " + std::to_string(worker.unit.job_id) + ": unit " +
                std::to_string(worker.unit.slot) + "/" +
                std::to_string(worker.unit.rep) + " timed out, killing worker");
            ::kill(worker.pid, SIGKILL);
            reap(worker, /*charge_attempt=*/true);
          }
        }
      }

      finalize_jobs();
    }

    // Drained: ask each worker to exit, then close the command pipes. A
    // worker wedged in a hung unit gets two seconds before SIGKILL.
    for (ServeWorker& worker : workers) {
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
    const auto shutdown_deadline = Clock::now() + std::chrono::seconds(2);
    for (ServeWorker& worker : workers) {
      if (!worker.alive) continue;
      for (;;) {
        int status = 0;
        const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
        if (reaped == worker.pid || (reaped < 0 && errno != EINTR)) break;
        if (Clock::now() >= shutdown_deadline) {
          ::kill(worker.pid, SIGKILL);
          (void)util::wait_for_exit(worker.pid);
          break;
        }
        ::usleep(10 * 1000);
      }
      worker.alive = false;
    }
  } catch (...) {
    kill_all();
    for (auto& [id, job] : jobs) {
      if (job.client_fd >= 0) ::close(job.client_fd);
    }
    ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    throw;
  }

  ::close(listen_fd);
  ::unlink(options.socket_path.c_str());
  say("drained: served " + std::to_string(jobs_served) + " job(s)");
  return jobs_served;
}

ExperimentResult submit_job(const std::string& socket_path, const std::string& ini_text,
                            const ProgressFn& progress) {
  // Parse locally first: config mistakes surface with full locators without
  // a round-trip, and the local spec doubles as the result's spec (the same
  // deterministic parse the service and its workers run on the same bytes).
  ExperimentSpec spec =
      spec_from_ini(util::IniFile::parse(ini_text, "submitted config"));

  util::SigpipeGuard sigpipe_guard;
  FdGuard fd(connect_to_service(socket_path));

  util::ByteWriter writer;
  encode_job_submit(writer, {ini_text});
  util::write_frame_zc(fd.get(), writer.bytes());

  std::string frame;
  std::optional<JobAccepted> accepted;
  std::vector<std::optional<CellResult>> cells;
  SweepHealth health;
  for (bool done = false; !done;) {
    if (!util::read_frame_into(fd.get(), frame, util::kMaxChannelFrame)) {
      throw IoError("--submit: service closed the connection mid-job (did it crash?)");
    }
    switch (peek_job_frame(frame)) {
      case JobFrame::kBusy: {
        const JobBusy busy = decode_job_busy(frame);
        if (busy.draining != 0) {
          throw IoError("--submit: service at '" + socket_path +
                        "' is draining and no longer admits jobs");
        }
        throw IoError("--submit: service busy: " + std::to_string(busy.in_service) +
                      " job(s) in service (backlog " + std::to_string(busy.backlog) +
                      ") — retry later");
      }
      case JobFrame::kError:
        throw InputError("--submit: service rejected the config: " +
                         decode_job_error(frame).message);
      case JobFrame::kAccepted: {
        accepted = decode_job_accepted(frame);
        cells.assign(accepted->cells_total, std::nullopt);
        break;
      }
      case JobFrame::kCell: {
        require_input(accepted.has_value(), "--submit: cell frame before acceptance");
        const JobCell cell_frame = decode_job_cell(frame);
        require_input(cell_frame.slot < cells.size(),
                      "--submit: cell frame for out-of-range slot");
        cells[cell_frame.slot] = decode_cell(cell_frame.cell_payload);
        if (progress) {
          progress(cell_frame.cells_done, cell_frame.cells_total,
                   *cells[cell_frame.slot]);
        }
        break;
      }
      case JobFrame::kDone: {
        require_input(accepted.has_value(), "--submit: done frame before acceptance");
        const JobDone job_done = decode_job_done(frame);
        health.completed_cells = job_done.completed_cells;
        health.failed_cells = job_done.failed_cells;
        health.retries = job_done.retries;
        health.workers = job_done.workers;
        done = true;
        break;
      }
      default:
        throw IoError("--submit: unexpected frame from service");
    }
  }

  ExperimentResult result;
  result.spec = std::move(spec);
  result.health = health;
  result.cells.reserve(cells.size());
  for (auto& cell : cells) {
    require_input(cell.has_value(), "--submit: job finished with missing cells");
    result.cells.push_back(std::move(*cell));
  }
  return result;
}

}  // namespace e2c::exp
