/// \file serve.hpp
/// \brief Resident sweep service: `e2c_experiment --serve` and `--submit`.
///
/// The process backend (PR 7) made sweeps crash-isolated; the sharded plane
/// (PR 8) made them scale. Both still pay full process spawn plus
/// Simulation/arena warm-up on every invocation. The serve mode moves that
/// cost out of the request path: one long-running service listens on a
/// Unix-domain socket, keeps a persistent pool of pre-forked worker
/// processes, and shards each submitted sweep's (cell, replication) units
/// across them. Workers cache parsed specs, paired traces, and Simulation
/// leases keyed by the config text's digest, so a repeat submission runs
/// replications against warm engines — no fork, no arena rebuild, no trace
/// regeneration.
///
/// Workers, unit protocol and supervision bookkeeping are the process
/// backend's (exp/worker_pool.hpp): per-unit wall-clock timeouts (SIGKILL +
/// requeue), crash detection via pipe hangup, retry with exponential
/// backoff, graceful degradation to failed cells, per-job crash-safe
/// journals, and a SIGTERM/SIGINT drain that finishes every admitted job
/// (journaling results as cells complete) before exiting 0.
/// Admission is a bounded queue: beyond `backlog` jobs in service, a submit
/// is answered with a busy frame and closed — the service never queues
/// unboundedly. Results stream back to each client as per-cell frames and
/// are byte-identical to a direct `--backend procs` run of the same config.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "exp/experiment.hpp"

namespace e2c::exp {

/// Everything `run_serve` needs. Defaults match the process backend's
/// supervision knobs, which count per replication unit on both.
struct ServeOptions {
  std::string socket_path;      ///< Unix-domain socket to listen on
  std::size_t workers = 0;      ///< persistent pool size; 0 = hardware concurrency
  std::size_t backlog = 4;      ///< max jobs in service before busy-reject
  double cell_timeout = 0.0;    ///< wall-clock budget (s) per unit attempt; 0 = off
  std::size_t max_retries = 2;  ///< crash/timeout requeues per unit before the cell fails
  double backoff_base = 0.05;   ///< delay (s) before the first requeue
  double backoff_factor = 2.0;  ///< multiplier per further requeue
  double max_backoff = 1.0;     ///< ceiling (s) for any single backoff
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
