/// \file process_pool.hpp
/// \brief Crash-isolated multi-process execution backend for sweeps.
///
/// The sweep is split into (cell, replication) units, like the threads
/// backend and the resident service, and the units are sharded over forked
/// worker processes (exp/worker_pool.hpp: the same worker loop and unit
/// protocol as `--serve`). The spec reaches the workers as a job cache entry
/// preloaded before fork(), so programmatic specs and policies registered at
/// run time work unchanged. The parent is a single-threaded supervisor: it
/// dispatches units, enforces a wall-clock timeout per unit (SIGKILL +
/// requeue), detects crashes via pipe hangup + waitpid, retries a unit with
/// exponential backoff up to `max_retries`, then records its cell as failed
/// and lets the rest of the sweep complete (graceful degradation).
/// SIGINT/SIGTERM (when `drain_on_signals` is set) stop dispatching, let
/// in-flight units finish, flush the journal, and return partial results.
/// Only whole cells are journaled, so `--resume` reruns partial ones.
///
/// Workers regenerate traces from the spec (a pure function of the seed)
/// and cells are assembled in replication order, so fault-free sweeps are
/// byte-identical to the threads backend.
#pragma once

#include <cstddef>
#include <map>

#include "exp/experiment.hpp"
#include "exp/journal.hpp"

namespace e2c::exp {

/// Runs the sweep on forked worker processes. \p resumed maps slot index →
/// cell restored from the journal (merged into the result, not recomputed);
/// \p journal (may be null) receives each freshly completed or failed cell.
/// Called by run_experiment when options.backend == Backend::kProcs.
[[nodiscard]] ExperimentResult run_experiment_procs(
    const ExperimentSpec& spec, const RunOptions& options,
    std::map<std::size_t, CellResult> resumed, SweepJournal* journal);

}  // namespace e2c::exp
