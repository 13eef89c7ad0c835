#include "exp/process_pool.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/cell_codec.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/string_util.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace e2c::exp {

namespace {

using Clock = std::chrono::steady_clock;

/// Dispatch frame slot value that tells a worker to exit cleanly.
constexpr std::uint32_t kTerminateSlot = 0xFFFFFFFFu;

/// One (policy, intensity) cell in (policy-major, intensity-minor) order.
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

// ---- graceful drain on SIGINT/SIGTERM ----------------------------------

volatile sig_atomic_t g_drain_requested = 0;

extern "C" void e2c_drain_handler(int) { g_drain_requested = 1; }

/// Installs SIGINT/SIGTERM handlers that request a drain; restores the
/// previous dispositions on destruction. No SA_RESTART: poll() must return
/// EINTR so the supervisor notices the request promptly.
class ScopedDrainHandlers {
 public:
  explicit ScopedDrainHandlers(bool enable) : installed_(enable) {
    if (!installed_) return;
    g_drain_requested = 0;
    struct sigaction action {};
    action.sa_handler = e2c_drain_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
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

// ---- worker side --------------------------------------------------------

/// Fault-injection hooks for tests and the CI crash lane, matched on
/// "POLICY/intensity" (e.g. "MECT/low"):
///   E2C_EXP_TEST_CRASH_CELL    raise(SIGKILL) on the cell's first attempt
///   E2C_EXP_TEST_HANG_CELL     loop in pause() forever (every attempt)
///   E2C_EXP_TEST_CELL_DELAY_MS sleep before computing any cell
bool cell_matches(const char* env, const Slot& slot) {
  if (env == nullptr) return false;
  return slot.policy + "/" + workload::intensity_name(slot.intensity) == env;
}

[[noreturn]] void worker_main(const ExperimentSpec& spec,
                              const std::vector<Slot>& slots, int cmd_fd,
                              int res_fd) {
  // Only the supervisor reacts to SIGINT/SIGTERM: a Ctrl-C reaching the
  // whole foreground process group must not kill in-flight cells mid-drain.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  const char* crash_cell = std::getenv("E2C_EXP_TEST_CRASH_CELL");
  const char* hang_cell = std::getenv("E2C_EXP_TEST_HANG_CELL");
  const char* delay_ms = std::getenv("E2C_EXP_TEST_CELL_DELAY_MS");
  for (;;) {
    std::optional<std::string> frame;
    try {
      frame = util::read_frame(cmd_fd, util::kMaxChannelFrame);
    } catch (...) {
      ::_exit(0);
    }
    if (!frame) ::_exit(0);  // supervisor closed the queue
    util::ByteReader reader(*frame);
    const std::uint32_t slot_index = reader.u32();
    if (slot_index == kTerminateSlot) ::_exit(0);
    const std::uint32_t attempt = reader.u32();
    const Slot& slot = slots[slot_index];
    if (attempt == 0 && cell_matches(crash_cell, slot)) ::raise(SIGKILL);
    if (cell_matches(hang_cell, slot)) {
      for (;;) ::pause();
    }
    if (delay_ms != nullptr) {
      if (const auto parsed = util::parse_int(delay_ms); parsed && *parsed > 0) {
        ::usleep(static_cast<useconds_t>(*parsed) * 1000);
      }
    }
    CellResult cell;
    try {
      cell = detail::compute_cell(spec, slot.policy, slot.intensity);
    } catch (...) {
      // A throwing cell is a crash as far as supervision is concerned: the
      // parent retries it and eventually records it failed.
      ::_exit(3);
    }
    cell.attempts = attempt + 1;
    util::ByteWriter writer;
    writer.u32(slot_index);
    writer.str(encode_cell(cell));
    try {
      util::write_frame(res_fd, writer.bytes());
    } catch (...) {
      ::_exit(0);  // supervisor went away
    }
  }
}

// ---- parent side --------------------------------------------------------

struct Worker {
  pid_t pid = -1;
  std::unique_ptr<util::Pipe> cmd;  ///< parent writes dispatch frames
  std::unique_ptr<util::Pipe> res;  ///< parent reads result frames
  bool alive = false;
  bool busy = false;
  std::uint32_t slot = 0;
  std::uint32_t attempt = 0;
  Clock::time_point started;
};

struct ReadyCell {
  std::uint32_t slot = 0;
  std::uint32_t attempt = 0;
  Clock::time_point release;  ///< backoff: not dispatchable before this
};

void spawn_worker(Worker& worker, std::vector<Worker>& workers,
                  const ExperimentSpec& spec, const std::vector<Slot>& slots) {
  worker.cmd = std::make_unique<util::Pipe>();
  worker.res = std::make_unique<util::Pipe>();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw IoError(std::string("process pool: fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop every other worker's pipe ends — a sibling holding a dead
    // worker's result-pipe write end would suppress the EOF the supervisor
    // uses for crash detection.
    for (Worker& other : workers) {
      if (&other == &worker || !other.cmd) continue;
      other.cmd.reset();
      other.res.reset();
    }
    worker.cmd->close_write();
    worker.res->close_read();
    worker_main(spec, slots, worker.cmd->read_fd(), worker.res->write_fd());
  }
  worker.pid = pid;
  worker.cmd->close_read();
  worker.res->close_write();
  worker.alive = true;
  worker.busy = false;
}

}  // namespace

ExperimentResult run_experiment_procs(const ExperimentSpec& spec,
                                      const RunOptions& options,
                                      std::map<std::size_t, CellResult> resumed,
                                      SweepJournal* journal) {
  const std::vector<Slot> slots = build_slots(spec);
  const std::size_t cells_total = slots.size();

  SweepHealth health;
  health.resumed_cells = resumed.size();
  health.completed_cells = resumed.size();  // resumed records are all ok

  std::vector<std::optional<CellResult>> results(cells_total);
  for (auto& [slot, cell] : resumed) results[slot] = std::move(cell);

  std::deque<ReadyCell> ready;
  const auto start = Clock::now();
  for (std::size_t slot = 0; slot < cells_total; ++slot) {
    if (!results[slot]) ready.push_back({static_cast<std::uint32_t>(slot), 0, start});
  }
  const std::size_t fresh_total = ready.size();
  std::size_t unresolved = fresh_total;
  std::size_t fresh_done = 0;

  ScopedDrainHandlers drain_handlers(options.drain_on_signals);
  util::SigpipeGuard sigpipe_guard;

  // Same normalization as the threads backend: 0 means hardware concurrency,
  // resolved in exactly one place so the reported count cannot disagree.
  std::size_t pool_size = util::ThreadPool::resolve_worker_count(options.workers);
  health.workers = pool_size;
  pool_size = std::min(pool_size, std::max<std::size_t>(fresh_total, 1));

  std::vector<Worker> workers(fresh_total == 0 ? 0 : pool_size);

  const auto record = [&](std::size_t slot, CellResult cell) {
    if (cell.status == CellStatus::kOk) {
      ++health.completed_cells;
    } else {
      ++health.failed_cells;
    }
    if (journal != nullptr) journal->append(slot, cell);
    results[slot] = std::move(cell);
    --unresolved;
    ++fresh_done;
    if (options.progress) options.progress(fresh_done, fresh_total, *results[slot]);
  };

  const auto handle_attempt_failure = [&](std::uint32_t slot, std::uint32_t attempt) {
    if (attempt < options.max_retries) {
      ++health.retries;
      const double backoff =
          std::min(options.max_backoff,
                   options.backoff_base * std::pow(options.backoff_factor,
                                                   static_cast<double>(attempt)));
      ready.push_back({slot, attempt + 1,
                       Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(backoff))});
    } else {
      CellResult failed;
      failed.policy = slots[slot].policy;
      failed.intensity = slots[slot].intensity;
      failed.status = CellStatus::kFailed;
      failed.attempts = attempt + 1;
      record(slot, std::move(failed));
    }
  };

  /// Reaps a dead (or about-to-be-killed) worker; a cell in flight is
  /// requeued (or failed) unless the worker was idle.
  const auto reap = [&](Worker& worker, bool charge_attempt) {
    (void)util::wait_for_exit(worker.pid);
    worker.alive = false;
    const bool was_busy = worker.busy;
    worker.busy = false;
    worker.cmd.reset();
    worker.res.reset();
    if (was_busy && charge_attempt) handle_attempt_failure(worker.slot, worker.attempt);
  };

  const auto kill_all = [&] {
    for (Worker& worker : workers) {
      if (!worker.alive) continue;
      ::kill(worker.pid, SIGKILL);
      (void)util::wait_for_exit(worker.pid);
      worker.alive = false;
    }
  };

  try {
    for (Worker& worker : workers) {
      if (ready.size() <= static_cast<std::size_t>(&worker - workers.data())) break;
      spawn_worker(worker, workers, spec, slots);
    }

    while (unresolved > 0) {
      const bool draining = g_drain_requested != 0;
      if (draining) ready.clear();

      // Respawn dead workers while undispatched work remains.
      if (!draining && !ready.empty()) {
        std::size_t deficit = ready.size();
        for (const Worker& worker : workers) {
          if (worker.alive && !worker.busy) {
            if (deficit == 0) break;
            --deficit;
          }
        }
        for (Worker& worker : workers) {
          if (deficit == 0) break;
          if (!worker.alive) {
            spawn_worker(worker, workers, spec, slots);
            --deficit;
          }
        }
      }

      // Dispatch released cells to idle workers.
      const auto now = Clock::now();
      for (Worker& worker : workers) {
        if (!worker.alive || worker.busy) continue;
        const auto next = std::find_if(ready.begin(), ready.end(), [&](const ReadyCell& cell) {
          return cell.release <= now;
        });
        if (next == ready.end()) break;
        const ReadyCell cell = *next;
        ready.erase(next);
        util::ByteWriter dispatch;
        dispatch.u32(cell.slot);
        dispatch.u32(cell.attempt);
        try {
          util::write_frame(worker.cmd->write_fd(), dispatch.bytes());
        } catch (const IoError&) {
          // Worker died while idle (e.g. an external kill -9): the attempt
          // was never started, so it is not charged against the cell.
          ready.push_front(cell);
          reap(worker, /*charge_attempt=*/false);
          continue;
        }
        worker.busy = true;
        worker.slot = cell.slot;
        worker.attempt = cell.attempt;
        worker.started = now;
      }

      if (draining) {
        const bool any_busy = std::any_of(workers.begin(), workers.end(),
                                          [](const Worker& w) { return w.busy; });
        if (!any_busy) break;  // in-flight cells done; leave the rest unrun
      }

      // Poll timeout: the nearest of cell deadline, backoff release, or a
      // 200 ms responsiveness cap (drain requests must not wait long). A
      // release only matters while some worker is dead or idle to take the
      // cell; with every worker busy, a result frame or hang-up wakes the
      // poll first, and clamping to an already-passed release would spin.
      int timeout_ms = 200;
      const auto clamp_timeout = [&](Clock::time_point when) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(when - Clock::now())
                .count();
        timeout_ms = std::max(0, std::min<int>(timeout_ms, static_cast<int>(
                                                               std::max<long long>(0, remaining))));
      };
      if (options.cell_timeout > 0.0) {
        for (const Worker& worker : workers) {
          if (worker.alive && worker.busy) {
            clamp_timeout(worker.started + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(
                                                   options.cell_timeout)));
          }
        }
      }
      const bool can_dispatch = std::any_of(workers.begin(), workers.end(),
                                            [](const Worker& w) { return !w.alive || !w.busy; });
      if (can_dispatch) {
        for (const ReadyCell& cell : ready) clamp_timeout(cell.release);
      }

      std::vector<pollfd> fds;
      std::vector<Worker*> fd_owner;
      for (Worker& worker : workers) {
        if (!worker.alive) continue;
        fds.push_back({worker.res->read_fd(), POLLIN, 0});
        fd_owner.push_back(&worker);
      }
      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      if (rc < 0 && errno != EINTR) {
        throw IoError(std::string("process pool: poll failed: ") + std::strerror(errno));
      }

      if (rc > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents == 0) continue;
          Worker& worker = *fd_owner[i];
          bool dead = false;
          if ((fds[i].revents & POLLIN) != 0) {
            try {
              const auto frame =
                  util::read_frame(worker.res->read_fd(), util::kMaxChannelFrame);
              if (frame.has_value()) {
                util::ByteReader reader(*frame);
                const std::uint32_t slot = reader.u32();
                require(worker.busy && slot == worker.slot,
                        "process pool: result frame for unexpected slot");
                CellResult cell = decode_cell(reader.str());
                worker.busy = false;
                record(slot, std::move(cell));
              } else {
                dead = true;
              }
            } catch (const IoError&) {
              dead = true;  // torn frame: the worker crashed mid-write
            } catch (const InputError&) {
              dead = true;  // undecodable payload: treat like a crash
            }
          } else if ((fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
            dead = true;
          }
          if (dead) reap(worker, /*charge_attempt=*/true);
        }
      }

      // Per-cell wall-clock timeout: SIGKILL and requeue.
      if (options.cell_timeout > 0.0) {
        const auto deadline_now = Clock::now();
        for (Worker& worker : workers) {
          if (!worker.alive || !worker.busy) continue;
          const double elapsed =
              std::chrono::duration<double>(deadline_now - worker.started).count();
          if (elapsed >= options.cell_timeout) {
            ::kill(worker.pid, SIGKILL);
            reap(worker, /*charge_attempt=*/true);
          }
        }
      }
    }

    // Shut the pool down: ask nicely, then close the queue.
    for (Worker& worker : workers) {
      if (!worker.alive) continue;
      util::ByteWriter terminate;
      terminate.u32(kTerminateSlot);
      terminate.u32(0);
      try {
        util::write_frame(worker.cmd->write_fd(), terminate.bytes());
      } catch (const IoError&) {
        // Already dead; reaped below.
      }
      worker.cmd.reset();
    }
    for (Worker& worker : workers) {
      if (!worker.alive) continue;
      (void)util::wait_for_exit(worker.pid);
      worker.alive = false;
    }
  } catch (...) {
    kill_all();
    throw;
  }

  health.drained = g_drain_requested != 0;

  ExperimentResult result;
  result.spec = spec;
  result.health = health;
  result.cells.reserve(cells_total);
  for (std::size_t slot = 0; slot < cells_total; ++slot) {
    if (results[slot]) result.cells.push_back(std::move(*results[slot]));
  }
  return result;
}

}  // namespace e2c::exp
