/// \file serve.hpp
/// \brief The supervisor loop of the crash-isolated backends: the resident
/// sweep service (`e2c_experiment --serve` and `--submit`) and the one-shot
/// `--backend procs` sweep.
///
/// Spawning a process per sweep pays process start-up plus Simulation/arena
/// warm-up on every invocation. The serve mode moves that cost out of the
/// request path: one long-running service listens on a Unix-domain socket,
/// keeps a persistent pool of pre-forked worker processes, and shards each
/// submitted sweep's (cell, replication) units across them. Workers cache
/// parsed specs, paired traces, and Simulation leases keyed by the config
/// text's digest, so a repeat submission runs replications against warm
/// engines — no fork, no arena rebuild, no trace regeneration.
///
/// One poll() loop supervises both modes. It runs units through the job,
/// unit runner, ledger and cell collector that every backend shares, on the
/// worker processes and unit protocol of exp/worker_pool.hpp: per-unit
/// wall-clock timeouts (SIGKILL + requeue), crash detection via pipe hangup,
/// retry with exponential backoff, graceful degradation to failed cells, and
/// crash-safe journals of whole cells. What differs follows from whether the
/// loop has a listener:
///  - With one (run_serve), it admits submitted jobs and streams their cells
///    to each client. Admission is a bounded queue: beyond `backlog` jobs in
///    service, a submit is answered with a busy frame and closed. A
///    SIGTERM/SIGINT drain stops admitting, finishes every admitted job, and
///    returns.
///  - Without one (run_experiment_procs), it runs one preloaded job and ends
///    when the job is done. A drain drops the queued units, lets the
///    in-flight ones finish, and returns the partial result.
/// Submitted results are byte-identical to a direct `--backend procs` run of
/// the same config, which is byte-identical to the threads backend.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "exp/experiment.hpp"
#include "exp/journal.hpp"

namespace e2c::exp {

/// Connections that may wait for their submit frame at once. Each holds an
/// fd for up to 5 s; past this many, the oldest is dropped to make room.
inline constexpr std::size_t kMaxPendingClients = 64;

/// Everything `run_serve` needs. Defaults match the process backend's
/// supervision knobs, which count per replication unit on both.
struct ServeOptions {
  std::string socket_path;      ///< Unix-domain socket to listen on
  std::size_t workers = 0;      ///< persistent pool size; 0 = hardware concurrency
  std::size_t backlog = 4;      ///< max jobs in service before busy-reject
  double cell_timeout = 0.0;    ///< wall-clock budget (s) per unit attempt; 0 = off
  std::size_t max_retries = 2;  ///< crash/timeout requeues per unit before the cell fails
  /// Per-job crash-safe journals at "<prefix>.job<id>" (the PR-7 format,
  /// readable by exp::read_journal). Only whole cells are journaled. Empty
  /// disables journaling.
  std::string journal_prefix;
  /// Install SIGINT/SIGTERM handlers that drain the service: stop admitting
  /// (busy frames carry the draining flag), finish every admitted job, then
  /// return. CLI-facing; library callers that own signals leave this off
  /// and stop the service by signalling the process themselves.
  bool drain_on_signals = true;
  /// Service log lines ("accepted job 3", "worker 2 crashed, requeued...").
  /// Null = silent.
  std::function<void(std::string_view)> log;
};

/// Runs the service until a drain signal arrives and every admitted job has
/// finished. Returns the number of jobs served to completion. Throws
/// e2c::InputError for an unusable socket path (a live service already
/// listening, or a non-socket file in the way) and e2c::IoError for system
/// failures. A stale socket file — left by a crashed service, nothing
/// listening — is removed and rebound automatically.
std::size_t run_serve(const ServeOptions& options);

class SweepCells;

/// Runs a sweep on the same loop as one job preloaded into every worker
/// before fork() (so programmatic specs and policies registered at run time
/// work), with no socket and a pool of min(workers, queued units). \p cells
/// holds the cells restored from the journal (merged into the result, never
/// queued) and takes each freshly completed or failed cell. Called by
/// run_experiment when options.backend == Backend::kProcs.
[[nodiscard]] ExperimentResult run_experiment_procs(const ExperimentSpec& spec,
                                                    const RunOptions& options, SweepCells cells);

/// Client half: submits \p ini_text (a full experiment config) to the
/// service at \p socket_path, streams per-cell results (firing \p progress
/// per finished cell, in completion order), and returns the assembled
/// result — cells in (policy-major, intensity-minor) order, byte-identical
/// in result_csv to a direct run of the same config. Throws e2c::InputError
/// when no service listens at the path or the service rejects the config,
/// and e2c::IoError when the service is busy (retryable) or dies mid-job.
[[nodiscard]] ExperimentResult submit_job(const std::string& socket_path,
                                          const std::string& ini_text,
                                          const ProgressFn& progress = {});

}  // namespace e2c::exp
