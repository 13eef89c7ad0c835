/// \file worker_pool.hpp
/// \brief The unit pipeline every sweep backend shares, and the worker
/// processes of the supervisor loop in serve.cpp. Internal to e2c_exp.
///
/// Every backend shards a sweep into (cell, replication) units and runs each
/// one the same way: a CachedJob holds the parsed spec, its SystemConfig and
/// the paired traces; run_unit runs one unit on the calling thread's leased
/// Simulation; a UnitLedger turns finished and failed units into cells; and
/// SweepCells counts, journals and delivers those cells. The threads backend
/// runs units on a thread pool and charges a throwing unit under
/// RequeuePolicy{0}, so its cell fails on the first throw. The crash-isolated
/// modes, the resident `--serve` service and the one-shot `--backend procs`
/// sweep, run them on forked worker processes that speak the job_codec
/// worker frames: kLoadJob / kRunUnit / kShutdown in, kUnitResult out. A
/// worker keeps a small FIFO cache of jobs and fills their traces lazily;
/// serve fills the cache with kLoadJob, procs preloads its one job before
/// fork() so programmatic specs and policies registered at run time reach the
/// worker without an INI round-trip.
///
/// A UnitLedger holds one job's per-unit state: metrics by (slot,
/// replication), replications left, failed flag and retry count per slot.
/// It requeues a crashed or timed-out unit with exponential backoff or gives
/// the whole cell up, and assembles finished cells in replication order, so
/// every backend merges bit-exact Metrics in the same order and the result
/// CSVs stay byte-identical. `cell_timeout` and `max_retries` therefore
/// count per replication unit in both process modes.
///
/// The loop's wake-up and dispatch rules are poll_timeout_ms and
/// dispatch_ready. The loop itself, and how a drain ends it with or without
/// a listener, is in serve.hpp. No rule here reads the clock: each takes
/// the loop's `now`, so the loop decides when to read it and a test can pin
/// it.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "util/framing.hpp"
#include "util/subprocess.hpp"

namespace e2c::exp {

using Clock = std::chrono::steady_clock;

/// One (policy, intensity) cell in (policy-major, intensity-minor) order —
/// the slot index that journals, result frames and clients share.
struct Slot {
  std::string policy;
  workload::Intensity intensity = workload::Intensity::kLow;
};

[[nodiscard]] std::vector<Slot> build_slots(const ExperimentSpec& spec);

/// Installs SIGINT/SIGTERM handlers that request a drain and restores the
/// previous dispositions on destruction. No SA_RESTART: poll() must return
/// EINTR so the supervisor notices the request promptly.
class ScopedDrainHandlers {
 public:
  explicit ScopedDrainHandlers(bool enable);
  ~ScopedDrainHandlers();
  ScopedDrainHandlers(const ScopedDrainHandlers&) = delete;
  ScopedDrainHandlers& operator=(const ScopedDrainHandlers&) = delete;

  /// True once a signal arrived while these handlers were installed.
  [[nodiscard]] bool requested() const noexcept;

 private:
  bool installed_;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// A sweep's job: parsed spec, its SystemConfig (the sim_pool lease key),
/// and every paired trace generated so far. A worker process keeps jobs
/// warm: two serve submissions with identical config text share one entry —
/// the repeat fast path: no parse, no trace regeneration, warm Simulation
/// leases.
struct CachedJob {
  std::uint64_t key = 0;
  ExperimentSpec spec;
  std::shared_ptr<const sched::SystemConfig> system;
  std::vector<hetero::MachineTypeId> machine_types;
  std::vector<Slot> slots;
  /// Paired traces by (intensity, replication), shared by every policy slot.
  std::map<std::pair<int, std::uint32_t>, std::shared_ptr<const workload::Workload>>
      traces;

  /// The paired trace of (\p intensity, \p rep), generated into `traces` on
  /// first use. A job shared across threads has every trace its units need
  /// filled first, so concurrent calls only read.
  const std::shared_ptr<const workload::Workload>& trace(workload::Intensity intensity,
                                                         std::uint32_t rep);
};

[[nodiscard]] CachedJob make_cached_job(std::uint64_t key, ExperimentSpec spec);

/// Runs replication \p rep of \p slot of \p job on the calling thread's
/// leased Simulation and returns its metrics: the one unit body of every
/// backend.
[[nodiscard]] reports::Metrics run_unit(CachedJob& job, std::uint32_t slot, std::uint32_t rep);

/// One (job, slot, replication) unit awaiting dispatch or in flight.
struct Unit {
  std::uint64_t job_id = 0;
  std::uint32_t slot = 0;
  std::uint32_t rep = 0;
  std::uint32_t attempt = 0;
  Clock::time_point release;  ///< backoff: not dispatchable before this
};

struct Worker {
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

/// Forks \p worker (an element of \p workers). The child drops every
/// sibling's pipe ends — a sibling holding a dead worker's result pipe would
/// suppress the EOF used for crash detection — and closes \p close_in_child
/// (the caller's sockets), then runs the worker loop. \p preload, when set,
/// is in the child's job cache before its first frame and in the mirror.
void spawn_worker(Worker& worker, std::vector<Worker>& workers,
                  const std::vector<int>& close_in_child, const CachedJob* preload);

/// Sends \p unit of the job keyed \p key to an idle worker, preceded by a
/// kLoadJob of \p ini_text when the worker's mirror lacks the key, and marks
/// the worker busy since \p now. Returns false when the worker died while idle; the
/// attempt never started, so the caller requeues it uncharged and reaps.
[[nodiscard]] bool dispatch(Worker& worker, const Unit& unit, std::uint64_t key,
                            std::string_view ini_text, util::ByteWriter& writer,
                            Clock::time_point now);

/// Handles a poll event on a busy worker's result pipe. Returns the Metrics
/// of its in-flight unit (the worker is idle again), or nullopt when the
/// worker is gone: it hung up, tore a frame, sent an undecodable payload or
/// answered for a unit it was not given. Such a worker has been SIGKILLed;
/// the caller reaps it and charges its unit as a crash.
[[nodiscard]] std::optional<reports::Metrics> read_unit_result(Worker& worker, short revents,
                                                               std::string& frame);

/// Collects a dead or killed worker and returns its in-flight unit, if any.
[[nodiscard]] std::optional<Unit> reap(Worker& worker);

/// SIGKILLs and reaps every busy worker whose unit has run \p unit_timeout
/// seconds or longer by \p now (0 disables); returns the units they held.
[[nodiscard]] std::vector<Unit> kill_overdue(std::vector<Worker>& workers, double unit_timeout,
                                             Clock::time_point now);

/// The job of a unit as dispatch() needs it: the worker-cache key, and the
/// INI text sent to a worker whose mirror lacks that key.
struct UnitJob {
  std::uint64_t key = 0;
  std::string_view ini_text;
};

/// Finds a unit's job; nullopt when the job was cancelled, so the unit is
/// dropped instead of dispatched.
using UnitJobLookup = std::function<std::optional<UnitJob>(const Unit&)>;

/// Hands the units of \p ready released by \p now to idle workers in queue
/// order, dropping the units whose job \p job_of no longer finds as it meets
/// them. A worker that died while idle (e.g. an external kill -9) is reaped
/// and its unit goes back to the front of \p ready uncharged: the attempt
/// never started.
void dispatch_ready(std::vector<Worker>& workers, std::deque<Unit>& ready,
                    const UnitJobLookup& job_of, util::ByteWriter& writer,
                    Clock::time_point now);

/// Poll timeout in ms from \p now: the nearest deadline of a busy worker's
/// unit, capped at 200 ms so a drain request never waits long. While some
/// worker is dead or idle it also clamps to the nearest backoff release in
/// \p ready, the moment that worker can take the unit. With every worker busy a release
/// does not matter: a result frame or hang-up wakes the poll first, and
/// clamping to a release already past would make the loop spin.
[[nodiscard]] int poll_timeout_ms(const std::vector<Worker>& workers, double unit_timeout,
                                  const std::deque<Unit>& ready, Clock::time_point now);

/// Asks every live worker to exit, then collects it; a worker wedged in a
/// hung unit gets two seconds before SIGKILL.
void shut_down(std::vector<Worker>& workers, util::ByteWriter& writer);

/// SIGKILLs and collects every live worker (the error path).
void kill_all(std::vector<Worker>& workers) noexcept;

/// Crash/timeout supervision knob, per replication unit. The backoff before
/// a requeue is fixed: 0.05 s, doubling per further attempt, at most 1 s.
struct RequeuePolicy {
  std::size_t max_retries = 2;  ///< requeues per unit before its cell fails
};

/// Per-unit state of one job (see the file comment).
class UnitLedger {
 public:
  UnitLedger(std::uint64_t job_id, std::vector<Slot> slots, std::uint32_t reps,
             RequeuePolicy retry);

  /// Appends every replication of \p slot to \p ready, released at \p now.
  void queue_slot(std::uint32_t slot, Clock::time_point now, std::deque<Unit>& ready) const;

  /// Stores a finished unit's metrics. Returns the slot's cell, assembled in
  /// replication order, once its last replication lands; nullopt while
  /// replications remain, for a cell already failed, or for a duplicate.
  [[nodiscard]] std::optional<CellResult> complete(const Unit& unit, reports::Metrics metrics);

  /// Charges a crashed or timed-out unit: requeues it into \p ready, released
  /// a backoff after \p now, or, once its retries are exhausted, drops the
  /// slot's pending units and returns the failed cell. No-op for a cell
  /// already failed.
  [[nodiscard]] std::optional<CellResult> charge(const Unit& unit, std::deque<Unit>& ready,
                                                 Clock::time_point now);

  [[nodiscard]] bool cell_failed(std::uint32_t slot) const { return failed_[slot] != 0; }
  [[nodiscard]] std::size_t cells() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }

 private:
  std::uint64_t job_id_;
  std::vector<Slot> slots_;
  std::uint32_t reps_;
  RequeuePolicy retry_;
  std::vector<std::optional<reports::Metrics>> metrics_;  ///< slot-major × rep
  std::vector<std::uint32_t> remaining_;                  ///< reps left per slot
  std::vector<char> failed_;
  std::vector<std::uint32_t> slot_retries_;
  std::size_t retries_ = 0;
};

/// One sweep's cells as they finish, in any order. Each fresh cell is
/// counted and journaled once. A direct sweep (threads or procs) also keeps
/// it by slot and reports it to progress; a served job streams it to its
/// client instead. Cells restored from a resume journal are in from the
/// start and are neither journaled nor reported again.
class SweepCells {
 public:
  SweepCells(std::size_t cells_total, std::map<std::size_t, CellResult> resumed,
             std::optional<SweepJournal> journal, ProgressFn progress);

  /// Counts and journals a fresh cell: all a served job does before it
  /// streams the cell.
  void count(std::uint32_t slot, const CellResult& cell);

  /// count(), then keeps the cell for result() and reports it to progress.
  void record(std::uint32_t slot, CellResult cell);

  [[nodiscard]] bool has(std::uint32_t slot) const { return cells_[slot].has_value(); }
  [[nodiscard]] std::size_t owed() const noexcept { return owed_; }  ///< fresh cells
  [[nodiscard]] std::size_t done() const noexcept { return done_; }
  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

  /// The kept cells in slot order, with health from the counts, \p workers
  /// and \p retries. A sweep with fresh cells still owed was drained.
  [[nodiscard]] ExperimentResult result(const ExperimentSpec& spec, std::size_t workers,
                                        std::size_t retries) &&;

 private:
  std::vector<std::optional<CellResult>> cells_;
  std::size_t resumed_;
  std::size_t owed_;
  std::size_t done_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::optional<SweepJournal> journal_;
  ProgressFn progress_;
};

}  // namespace e2c::exp
