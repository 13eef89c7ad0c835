#include "exp/experiment.hpp"

#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <optional>

#include "exp/journal.hpp"
#include "exp/scenario.hpp"
#include "exp/serve.hpp"
#include "exp/worker_pool.hpp"
#include "sched/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace e2c::exp {

const char* cell_status_name(CellStatus status) noexcept {
  return status == CellStatus::kOk ? "ok" : "failed";
}

Backend parse_backend(const std::string& name) {
  if (util::iequals(name, "threads")) return Backend::kThreads;
  if (util::iequals(name, "procs")) return Backend::kProcs;
  std::string message = "unknown experiment backend: '" + name + "'";
  if (const auto suggestion = util::nearest_match(name, {"threads", "procs"})) {
    message += " — did you mean '" + *suggestion + "'?";
  }
  message += " (valid: threads | procs)";
  throw InputError(message);
}

double CellResult::mean_of(double (*field)(const reports::Metrics&)) const {
  if (runs.empty()) return 0.0;
  double total = 0.0;
  for (const reports::Metrics& metrics : runs) total += field(metrics);
  return total / static_cast<double>(runs.size());
}

double CellResult::mean_completion_percent() const {
  return mean_of([](const reports::Metrics& m) { return m.completion_percent; });
}

double CellResult::ci95_completion_percent() const {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const reports::Metrics& metrics : runs) values.push_back(metrics.completion_percent);
  return util::ci95_half_width(values);
}

double CellResult::mean_energy_joules() const {
  return mean_of([](const reports::Metrics& m) { return m.total_energy_joules; });
}

double CellResult::mean_type_fairness() const {
  return mean_of([](const reports::Metrics& m) { return m.type_fairness_jain; });
}

const CellResult& ExperimentResult::cell(const std::string& policy,
                                         workload::Intensity intensity) const {
  for (const CellResult& c : cells) {
    if (c.policy == policy && c.intensity == intensity) return c;
  }
  throw InputError("experiment: no cell for policy '" + policy + "' at intensity '" +
                   workload::intensity_name(intensity) + "'");
}

std::uint64_t workload_seed(std::uint64_t base_seed, workload::Intensity intensity,
                            std::size_t replication) noexcept {
  // SplitMix-style mixing keeps distinct (intensity, rep) pairs independent
  // while remaining a pure function of the inputs.
  std::uint64_t state = base_seed ^ (0x632BE59BD9B4E019ULL *
                                     (static_cast<std::uint64_t>(intensity) + 1));
  state ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(replication) + 1);
  return util::splitmix64(state);
}

namespace {

/// Generator config of the paired trace for one (intensity, replication) —
/// identical for every policy, and identical across data planes.
workload::GeneratorConfig generator_for(
    const ExperimentSpec& spec, const std::vector<hetero::MachineTypeId>& machine_types,
    workload::Intensity intensity, std::size_t replication) {
  workload::GeneratorConfig generator = workload::config_for_intensity(
      spec.system.eet, machine_types, intensity, spec.duration,
      workload_seed(spec.base_seed, intensity, replication));
  generator.arrival = spec.arrival;
  generator.deadline_factor_lo = spec.deadline_factor_lo;
  generator.deadline_factor_hi = spec.deadline_factor_hi;
  return generator;
}

reports::Metrics run_single(const ExperimentSpec& spec, const std::string& policy_name,
                            workload::Intensity intensity, std::size_t replication) {
  const workload::Workload trace =
      detail::generate_trace(spec, machine_types_of(spec.system), intensity, replication);
  sched::Simulation simulation(spec.system, sched::make_policy(policy_name));
  simulation.load(trace);
  simulation.run();
  return reports::compute_metrics(simulation);
}

void fnv1a(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
}

void fnv1a_str(std::uint64_t& hash, const std::string& text) noexcept {
  fnv1a(hash, text.size());
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
}

std::uint64_t double_bits(double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Runs the sweep on the in-process thread pool, on the job, unit runner and
/// ledger of the process backend and the service.
///
/// Work is sharded per (cell, replication): a 4x3 sweep is 120 independent
/// replication tasks rather than 12 coarse cell tasks, so the pool stays fed
/// at any worker count. Under kShared this thread fills the job's traces
/// before any task is submitted, so the tasks only read the job. Tasks are
/// bulk-submitted (one lock per worker queue, one wake) and their futures go
/// to the ledger in slot-major, replication-minor order, so cells finish in
/// slot order and the result CSV is byte-identical across worker counts and
/// to the process backend. A unit that throws fails its cell at once
/// (RequeuePolicy{0}) and the sweep keeps going.
ExperimentResult run_experiment_threads(const ExperimentSpec& spec, const RunOptions& options,
                                        SweepCells cells) {
  CachedJob job = make_cached_job(/*key=*/0, spec);
  const auto reps = static_cast<std::uint32_t>(spec.replications);
  std::vector<std::uint32_t> fresh;
  for (std::uint32_t slot = 0; slot < job.slots.size(); ++slot) {
    if (!cells.has(slot)) fresh.push_back(slot);
  }

  std::vector<std::function<reports::Metrics()>> tasks;
  tasks.reserve(fresh.size() * reps);
  for (const std::uint32_t slot : fresh) {
    const Slot& cell = job.slots[slot];
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      if (options.plane == DataPlane::kShared) {
        (void)job.trace(cell.intensity, rep);
        tasks.push_back([&job, slot, rep] { return run_unit(job, slot, rep); });
      } else {
        tasks.push_back([&spec, &cell, rep] {
          return run_single(spec, cell.policy, cell.intensity, rep);
        });
      }
    }
  }

  util::ThreadPool pool(options.workers);
  std::vector<std::future<reports::Metrics>> futures = pool.submit_bulk(std::move(tasks));
  UnitLedger ledger(/*job_id=*/0, job.slots, reps, RequeuePolicy{.max_retries = 0});
  std::deque<Unit> no_requeue;
  auto future = futures.begin();
  for (const std::uint32_t slot : fresh) {
    for (std::uint32_t rep = 0; rep < reps; ++rep, ++future) {
      const Unit unit{.slot = slot, .rep = rep, .release = {}};
      std::optional<CellResult> cell;
      try {
        cell = ledger.complete(unit, future->get());
      } catch (...) {
        cell = ledger.charge(unit, no_requeue, Clock::now());
      }
      if (cell) cells.record(slot, std::move(*cell));
    }
  }
  return std::move(cells).result(spec, pool.worker_count(), ledger.retries());
}

}  // namespace

std::uint64_t spec_digest(const ExperimentSpec& spec) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  fnv1a(hash, spec.policies.size());
  for (const std::string& policy : spec.policies) fnv1a_str(hash, policy);
  fnv1a(hash, spec.intensities.size());
  for (const workload::Intensity intensity : spec.intensities) {
    fnv1a(hash, static_cast<std::uint64_t>(intensity));
  }
  fnv1a(hash, spec.replications);
  fnv1a(hash, double_bits(spec.duration));
  fnv1a(hash, spec.base_seed);
  fnv1a(hash, static_cast<std::uint64_t>(spec.arrival));
  fnv1a(hash, double_bits(spec.deadline_factor_lo));
  fnv1a(hash, double_bits(spec.deadline_factor_hi));
  // System shape and the fault/recovery knobs that change results; not a
  // full config fingerprint, but enough to reject resuming a different
  // sweep by accident.
  fnv1a(hash, spec.system.machines.size());
  fnv1a(hash, spec.system.machine_queue_capacity);
  fnv1a(hash, spec.system.faults.enabled ? 1 : 0);
  if (spec.system.faults.enabled) {
    fnv1a(hash, double_bits(spec.system.faults.mtbf));
    fnv1a(hash, double_bits(spec.system.faults.mttr));
    fnv1a(hash, spec.system.faults.seed);
  }
  // PET, comm and autoscaler only when set, so a spec without them keeps
  // the digest it had before they were hashed. Each has its own tag.
  if (const auto& pet = spec.system.pet) {
    fnv1a(hash, 1);
    for (std::size_t type = 0; type < pet->task_type_count(); ++type) {
      for (std::size_t machine = 0; machine < pet->machine_type_count(); ++machine) {
        const hetero::PetCell& cell = pet->cell(type, machine);
        fnv1a(hash, static_cast<std::uint64_t>(cell.kind));
        fnv1a(hash, double_bits(cell.cv));
      }
    }
  }
  if (const auto& comm = spec.system.comm) {
    fnv1a(hash, 2);
    for (std::size_t type = 0; type < comm->task_type_count(); ++type) {
      fnv1a(hash, double_bits(comm->payload_mb(type)));
    }
    for (std::size_t machine = 0; machine < comm->machine_type_count(); ++machine) {
      fnv1a(hash, double_bits(comm->link(machine).latency_seconds));
      fnv1a(hash, double_bits(comm->link(machine).bandwidth_mb_per_s));
    }
  }
  if (const sched::AutoscalerConfig& autoscaler = spec.system.autoscaler;
      autoscaler.enabled) {
    fnv1a(hash, 3);
    fnv1a(hash, double_bits(autoscaler.interval));
    fnv1a(hash, autoscaler.queue_high);
    fnv1a(hash, autoscaler.queue_low);
    fnv1a(hash, double_bits(autoscaler.boot_delay));
    fnv1a(hash, autoscaler.min_online);
    for (const std::size_t machine : autoscaler.initially_offline) fnv1a(hash, machine);
  }
  return hash;
}

namespace detail {

void validate_spec(const ExperimentSpec& spec) {
  require_input(!spec.policies.empty(), "experiment: no policies");
  require_input(!spec.intensities.empty(), "experiment: no intensities");
  require_input(spec.replications > 0, "experiment: replications must be > 0");
  for (const std::string& policy : spec.policies) {
    require_input(sched::PolicyRegistry::instance().contains(policy),
                  "experiment: unknown policy '" + policy + "'");
  }
}

workload::Workload generate_trace(const ExperimentSpec& spec,
                                  const std::vector<hetero::MachineTypeId>& machine_types,
                                  workload::Intensity intensity,
                                  std::size_t replication) {
  return workload::generate_workload(
      spec.system.eet, generator_for(spec, machine_types, intensity, replication));
}

}  // namespace detail

ExperimentResult run_experiment(const ExperimentSpec& spec, const RunOptions& options) {
  detail::validate_spec(spec);
  require_input(options.cell_timeout >= 0.0, "experiment: cell_timeout must be >= 0");
  require_input(!options.resume || !options.journal_path.empty(),
                "experiment: resume needs a journal path");

  const std::size_t cells_total = spec.policies.size() * spec.intensities.size();
  const std::uint64_t digest = spec_digest(spec);

  std::map<std::size_t, CellResult> resumed;
  std::optional<SweepJournal> journal;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      JournalContents contents = read_journal(options.journal_path);
      require_input(contents.digest == digest,
                    "experiment: journal '" + options.journal_path +
                        "' records a different sweep (spec digest mismatch); "
                        "refusing to merge its results");
      require_input(contents.cells_total == cells_total,
                    "experiment: journal '" + options.journal_path +
                        "' records a different cell count");
      for (auto& [slot, cell] : contents.cells) {
        // Failed cells get another chance on resume; only completed cells
        // are skipped.
        if (cell.status == CellStatus::kOk && slot < cells_total) {
          resumed.emplace(slot, std::move(cell));
        }
      }
      journal.emplace(SweepJournal::append_to(options.journal_path, digest, cells_total));
    } else {
      journal.emplace(SweepJournal::create(options.journal_path, digest, cells_total));
    }
  }

  SweepCells cells(cells_total, std::move(resumed), std::move(journal), options.progress);
  if (options.backend == Backend::kProcs) {
    return run_experiment_procs(spec, options, std::move(cells));
  }
  return run_experiment_threads(spec, options, std::move(cells));
}

ExperimentResult run_experiment(const ExperimentSpec& spec, std::size_t workers,
                                DataPlane plane, const ProgressFn& progress) {
  RunOptions options;
  options.workers = workers;
  options.plane = plane;
  options.progress = progress;
  return run_experiment(spec, options);
}

viz::BarChart completion_chart(const ExperimentResult& result, std::string title) {
  viz::BarChart chart;
  chart.title = std::move(title);
  for (workload::Intensity intensity : result.spec.intensities) {
    chart.groups.emplace_back(workload::intensity_name(intensity));
  }
  for (const std::string& policy : result.spec.policies) {
    viz::BarSeries series;
    series.name = policy;
    for (workload::Intensity intensity : result.spec.intensities) {
      series.values.push_back(result.cell(policy, intensity).mean_completion_percent());
    }
    chart.series.push_back(std::move(series));
  }
  return chart;
}

std::vector<std::vector<std::string>> result_csv(const ExperimentResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"policy", "intensity", "completion_percent_mean",
                  "completion_percent_ci95", "energy_joules_mean", "type_fairness_mean",
                  "replications", "status"});
  for (const CellResult& cell : result.cells) {
    rows.push_back({cell.policy, workload::intensity_name(cell.intensity),
                    util::format_fixed(cell.mean_completion_percent(), 2),
                    util::format_fixed(cell.ci95_completion_percent(), 2),
                    util::format_fixed(cell.mean_energy_joules(), 1),
                    util::format_fixed(cell.mean_type_fairness(), 4),
                    std::to_string(cell.runs.size()),
                    cell_status_name(cell.status)});
  }
  return rows;
}

}  // namespace e2c::exp
