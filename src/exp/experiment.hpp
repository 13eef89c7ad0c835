/// \file experiment.hpp
/// \brief Policy x intensity sweeps with replications — the engine behind
/// every figure of the paper's evaluation.
///
/// Workloads are *paired*: for a given (intensity, replication) every policy
/// sees the identical trace, exactly as the students ran the same CSV
/// workload through each scheduling method. Replications vary the seed so
/// the reported completion percentages carry confidence intervals.
///
/// Every backend runs a sweep through one unit pipeline (exp/worker_pool):
/// the sweep is sharded into (cell, replication) units of one job, each
/// unit runs through run_unit, a UnitLedger assembles the cells, and
/// SweepCells journals them, reports progress and builds the result. The
/// backends differ only in where units run: a thread pool, forked worker
/// processes, or the resident service's warm workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "reports/metrics.hpp"
#include "sched/simulation.hpp"
#include "viz/bar_chart.hpp"
#include "workload/generator.hpp"

namespace e2c::exp {

/// Full sweep description.
struct ExperimentSpec {
  sched::SystemConfig system;
  std::vector<std::string> policies;              ///< registry names
  std::vector<workload::Intensity> intensities;   ///< low/medium/high presets
  std::size_t replications = 10;
  core::SimTime duration = 400.0;                 ///< arrival window per run
  std::uint64_t base_seed = 42;
  workload::ArrivalKind arrival = workload::ArrivalKind::kPoisson;
  double deadline_factor_lo = 2.0;
  double deadline_factor_hi = 4.0;
};

/// Terminal state of one sweep cell. A cell fails on the process backend
/// once one of its replication units crashed or timed out more than
/// `max_retries` times, and on the threads backend when a replication
/// throws — either way the sweep degrades gracefully: the cell is recorded
/// with empty runs and the rest of the sweep completes.
enum class CellStatus { kOk, kFailed };

/// Display name ("ok" / "failed") — the `status` column of the result CSV.
[[nodiscard]] const char* cell_status_name(CellStatus status) noexcept;

/// Results of one (policy, intensity) cell across replications.
struct CellResult {
  std::string policy;
  workload::Intensity intensity = workload::Intensity::kLow;
  std::vector<reports::Metrics> runs;  ///< one Metrics per replication
  CellStatus status = CellStatus::kOk;
  /// 1 plus the crash/timeout requeues of this cell's replication units on
  /// the process backend and the service (1 on a clean run). A failed cell
  /// records the attempts of the unit that exhausted its retries.
  std::uint32_t attempts = 1;

  /// Mean across replications of a metric extracted by \p field.
  [[nodiscard]] double mean_of(double (*field)(const reports::Metrics&)) const;

  /// Mean completion percentage across replications.
  [[nodiscard]] double mean_completion_percent() const;

  /// ~95% CI half-width of the completion percentage.
  [[nodiscard]] double ci95_completion_percent() const;

  /// Mean total energy (J) across replications.
  [[nodiscard]] double mean_energy_joules() const;

  /// Mean Jain fairness across task types.
  [[nodiscard]] double mean_type_fairness() const;
};

/// Supervision counters of a finished (or drained) sweep — how many cells
/// completed, how many were given up on, and how much retrying it took.
struct SweepHealth {
  std::size_t completed_cells = 0;  ///< cells with CellStatus::kOk
  std::size_t failed_cells = 0;     ///< cells recorded failed after max_retries
  std::size_t retries = 0;          ///< total crash/timeout unit re-dispatches
  std::size_t resumed_cells = 0;    ///< taken from the journal, not recomputed
  /// Resolved worker count the sweep actually ran with (thread-pool size on
  /// the threads backend, process-slot count on procs). A requested 0 is
  /// normalized once through util::ThreadPool::resolve_worker_count, so the
  /// CLI summary and the pools always agree on what 0 means.
  std::size_t workers = 0;
  /// True when SIGINT/SIGTERM cut the sweep short: in-flight units were
  /// finished and every cell they completed journaled; cells with units
  /// left undispatched are absent from `cells`.
  bool drained = false;
};

/// All cells of a sweep, in (policy-major, intensity-minor) order.
struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<CellResult> cells;
  SweepHealth health;

  /// The cell for (policy, intensity); throws e2c::InputError if absent.
  [[nodiscard]] const CellResult& cell(const std::string& policy,
                                       workload::Intensity intensity) const;
};

/// Deterministic seed of the workload shared by all policies for one
/// (intensity, replication) pair.
[[nodiscard]] std::uint64_t workload_seed(std::uint64_t base_seed,
                                          workload::Intensity intensity,
                                          std::size_t replication) noexcept;

/// How the sweep provisions workloads and simulations.
enum class DataPlane {
  /// Each paired trace is generated once per (intensity, replication) and
  /// shared read-only by every policy cell; each cell runs on one Simulation
  /// that is reset between replications. This is the default: same results,
  /// a fraction of the setup cost.
  kShared,
  /// Every replication regenerates its trace and builds a fresh Simulation —
  /// the pre-sharing data plane, kept as the honest baseline for the
  /// experiment-throughput bench and for A/B validation.
  kPerRun,
};

/// Invoked after each (policy, intensity) cell finishes, from the thread
/// collecting results (never concurrently): cells done so far, total cells,
/// and the cell just completed. On the threads backend cells report in
/// (policy-major, intensity-minor) order; on the process backend they report
/// in completion order. Cells restored from a resume journal do not fire.
using ProgressFn = std::function<void(
    std::size_t cells_done, std::size_t cells_total, const CellResult& cell)>;

/// Execution backend of the sweep.
enum class Backend {
  /// In-process thread pool. Fastest setup; a throwing unit fails its cell,
  /// but one wedged or crashing unit takes the whole invocation down.
  kThreads,
  /// Forked worker processes, (cell, replication) units sharded over a work
  /// queue, results serialized back over pipes. The parent supervises:
  /// per-unit wall-clock timeouts, crash detection, retry with backoff,
  /// graceful degradation to CellStatus::kFailed. Fault-free sweeps produce
  /// byte-identical result CSVs to kThreads.
  kProcs,
};

/// Parses a backend name; throws e2c::InputError listing the registered
/// roster with a nearest-match suggestion (the --policy/--recovery
/// convention).
[[nodiscard]] Backend parse_backend(const std::string& name);

/// Everything run_experiment needs beyond the spec. The defaults reproduce
/// the plain threads sweep.
struct RunOptions {
  std::size_t workers = 0;              ///< 0 = hardware concurrency
  DataPlane plane = DataPlane::kShared; ///< threads backend only
  Backend backend = Backend::kThreads;
  /// Process backend: wall-clock budget (s) per replication unit attempt;
  /// the worker is SIGKILL'd and the unit requeued when exceeded. 0
  /// disables the timeout.
  double cell_timeout = 0.0;
  /// Process backend: crash/timeout re-dispatches per replication unit
  /// before its cell is recorded as failed and the sweep moves on.
  /// The backoff before a requeue is fixed (exp/worker_pool.hpp).
  std::size_t max_retries = 2;
  /// Crash-safe sweep journal: append-only per-cell records, fsync'd after
  /// each cell. Only whole cells are journaled, so a resumed sweep reruns
  /// every cell a crash or drain left partial. Empty disables journaling.
  std::string journal_path;
  /// Skip cells already recorded ok in the journal (which must exist and
  /// match this spec's digest); their results merge into the output.
  bool resume = false;
  /// Process backend: install SIGINT/SIGTERM handlers that drain the sweep
  /// (finish in-flight units, flush the journal, return partial results)
  /// instead of killing the invocation. CLI-facing; library callers that
  /// own their signal handling leave this off.
  bool drain_on_signals = false;
  ProgressFn progress;
};

/// Runs the sweep with full supervision options.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const RunOptions& options);

/// Runs the sweep. \p workers selects thread-pool size (0 = hardware
/// concurrency). Work is sharded per (cell, replication) — not per cell —
/// so a handful of cells still feeds every worker. No mutable state is
/// shared across threads: under kShared each worker leases its own
/// thread-local Simulation (reset between replications) and only aliases
/// immutable traces/config; under kPerRun each replication builds
/// everything afresh. Replications go to the ledger in deterministic
/// (policy-major, intensity-minor, replication) order, so the result CSV is
/// byte-identical across worker counts.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              std::size_t workers = 0,
                                              DataPlane plane = DataPlane::kShared,
                                              const ProgressFn& progress = {});

/// Stable digest of the sweep-shaping fields of a spec (policies,
/// intensities, replications, duration, seed, arrival, deadline factors,
/// machine count and queue size, the fault knobs, and PET, comm and the
/// autoscaler when set). The journal header records it so `--resume`
/// refuses to merge results produced by a different sweep.
[[nodiscard]] std::uint64_t spec_digest(const ExperimentSpec& spec) noexcept;

namespace detail {
/// The checks a sweep passes before it runs, on either backend and at the
/// service's admission: some policies and intensities, replications > 0,
/// and every policy registered. Throws e2c::InputError.
void validate_spec(const ExperimentSpec& spec);

/// Regenerates the paired trace of one (intensity, replication) — a pure
/// function of the spec, identical across every policy, data plane, and
/// backend. \p machine_types must be machine_types_of(spec.system). Worker
/// processes call this per (cell, replication) unit and cache the result
/// per job, so a worker generates each trace once for every policy of the
/// sweep and every repeat submission to the service.
[[nodiscard]] workload::Workload generate_trace(
    const ExperimentSpec& spec, const std::vector<hetero::MachineTypeId>& machine_types,
    workload::Intensity intensity, std::size_t replication);
}  // namespace detail

/// Builds the grouped bar chart of completion % — the layout of Figs. 5-7
/// (groups = intensities, series = policies).
[[nodiscard]] viz::BarChart completion_chart(const ExperimentResult& result,
                                             std::string title);

/// Emits the result as CSV rows: policy, intensity, mean/ci completion %,
/// mean energy, mean fairness, replications.
[[nodiscard]] std::vector<std::vector<std::string>> result_csv(
    const ExperimentResult& result);

}  // namespace e2c::exp
