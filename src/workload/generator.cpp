#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/large_buffer.hpp"
#include "util/string_util.hpp"

namespace e2c::workload {

const char* intensity_name(Intensity intensity) noexcept {
  switch (intensity) {
    case Intensity::kLow: return "low";
    case Intensity::kMedium: return "medium";
    case Intensity::kHigh: return "high";
  }
  return "unknown";
}

Intensity parse_intensity(const std::string& name) {
  for (Intensity intensity : {Intensity::kLow, Intensity::kMedium, Intensity::kHigh}) {
    if (util::iequals(name, intensity_name(intensity))) return intensity;
  }
  throw InputError("unknown intensity '" + name + "' (low|medium|high)");
}

double intensity_offered_load(Intensity intensity) noexcept {
  switch (intensity) {
    case Intensity::kLow: return 0.5;
    case Intensity::kMedium: return 1.0;
    case Intensity::kHigh: return 2.0;
  }
  return 1.0;
}

namespace {

/// Checks an explicit type mix against a catalog of \p types task types and
/// returns its sum. \p who prefixes the error messages.
double checked_weight_sum(const std::vector<double>& weights, std::size_t types,
                          std::string_view who) {
  const auto message = [who](const char* what) {
    return [who, what] { return std::string(who) + ": " + what; };
  };
  require_input(weights.size() == types,
                message("type_weights size must match EET task types"));
  double sum = 0.0;
  for (double w : weights) {
    require_input(w >= 0.0, message("negative type weight"));
    sum += w;
  }
  require_input(sum > 0.0, message("all type weights are zero"));
  return sum;
}

}  // namespace

double system_capacity(const hetero::EetMatrix& eet,
                       const std::vector<hetero::MachineTypeId>& machine_types,
                       const std::vector<double>& type_weights) {
  require_input(!machine_types.empty(), "system_capacity: no machines");
  const std::size_t types = eet.task_type_count();
  std::vector<double> weights = type_weights;
  if (weights.empty()) weights.assign(types, 1.0);
  const double weight_sum = checked_weight_sum(weights, types, "system_capacity");

  double capacity = 0.0;
  for (hetero::MachineTypeId machine_type : machine_types) {
    double mean_service = 0.0;
    for (std::size_t t = 0; t < types; ++t) {
      mean_service += weights[t] / weight_sum * eet.eet(t, machine_type);
    }
    capacity += 1.0 / mean_service;
  }
  return capacity;
}

namespace {

/// Tasks an aggregate stream of \p rate over \p duration is expected to
/// hold at most: the mean count plus 8 standard deviations of a Poisson
/// count, so a vector reserved for it almost never regrows. Capped at 2^26
/// tasks (2 GiB of TaskDefs); a larger trace regrows by doubling past the
/// cap.
std::size_t expected_tasks(double rate, core::SimTime duration) {
  constexpr double kMaxReserved = 67108864.0;
  const double mean = rate * duration;
  const double bound = mean + 8.0 * std::sqrt(mean) + 64.0;
  return static_cast<std::size_t>(bound < kMaxReserved ? bound : kMaxReserved);
}

/// A trace expected to take this much or more is reserved ahead on huge
/// pages. glibc's malloc serves smaller blocks from a heap it recycles
/// across set-ups without new page faults, and reserving those ahead
/// changed the recycling for the worse (a 100k-task trace measured 4 ms ->
/// 6-8 ms of set-up); from 32 MiB, its largest dynamic mmap threshold, every
/// block is a fresh mapping whose first touch faults anyway.
constexpr std::size_t kReserveAheadBytes = std::size_t{32} << 20;

/// Stamps row \p row's id and its deadline: arrival + factor * mean EET of
/// its type.
void stamp(TaskDef& task, std::size_t row, double factor,
           const std::vector<double>& row_means) {
  task.id = static_cast<TaskId>(row);
  task.deadline = task.arrival + factor * row_means[task.type];
}

/// Aggregate mode: one arrival stream, types drawn from the mix, written as
/// finished records in one pass. The default (uniform) mix draws in O(1) per
/// task; an explicit mix is scanned.
std::vector<TaskDef> aggregate_tasks(const hetero::EetMatrix& eet,
                                     const GeneratorConfig& config,
                                     const std::vector<double>& row_means, util::Rng& rng) {
  require_input(config.rate > 0.0, "generator: rate must be > 0");
  const std::size_t types = eet.task_type_count();
  const std::vector<double>& weights = config.type_weights;
  // With every weight checked non-negative the sum is Rng::weight_total.
  const double weight_total =
      weights.empty() ? 0.0 : checked_weight_sum(weights, types, "generator");

  // The split order (arrivals, types, deadlines) fixes every stream; the
  // WorkloadDigest goldens pin it.
  util::Rng arrivals_rng = rng.split();
  util::Rng types_rng = rng.split();
  util::Rng deadlines_rng = rng.split();
  std::vector<TaskDef> tasks;
  const std::size_t expected = expected_tasks(config.rate, config.duration);
  const bool reserve_ahead = expected * sizeof(TaskDef) >= kReserveAheadBytes;
  if (reserve_ahead) util::reserve_large(tasks, expected);
  for_each_arrival(config.arrival, config.rate, config.duration, arrivals_rng,
                   [&](core::SimTime t) {
                     const std::size_t type =
                         weights.empty() ? types_rng.unit_weight_index(types)
                                         : types_rng.weighted_index(weights, weight_total);
                     TaskDef task{.type = static_cast<std::uint32_t>(type), .arrival = t};
                     stamp(task, tasks.size(),
                           deadlines_rng.uniform(config.deadline_factor_lo,
                                                 config.deadline_factor_hi),
                           row_means);
                     tasks.push_back(task);
                   });
  // A trace that grew as it was written keeps no slack: a sweep caches one
  // per (intensity, replication), and the slack would add up in its RSS.
  if (!reserve_ahead) tasks.shrink_to_fit();
  return tasks;
}

/// Per-type mode (the paper's "arrival distribution for each task type"):
/// independent streams, merged by time, then stamped in arrival order.
std::vector<TaskDef> per_type_tasks(const hetero::EetMatrix& eet,
                                    const GeneratorConfig& config,
                                    const std::vector<double>& row_means, util::Rng& rng) {
  require_input(config.per_type_arrivals.size() == eet.task_type_count(),
                "generator: per_type_arrivals needs one spec per task type");
  std::vector<TaskDef> tasks;
  for (std::size_t type = 0; type < config.per_type_arrivals.size(); ++type) {
    const TypeArrivalSpec& spec = config.per_type_arrivals[type];
    require_input(spec.rate > 0.0, "generator: per-type rate must be > 0 (type " +
                                       eet.task_type_name(type) + ")");
    util::Rng stream_rng = rng.split();
    for_each_arrival(spec.kind, spec.rate, config.duration, stream_rng, [&](core::SimTime t) {
      tasks.push_back(TaskDef{.type = static_cast<std::uint32_t>(type), .arrival = t});
    });
  }
  std::stable_sort(tasks.begin(), tasks.end(), [](const TaskDef& a, const TaskDef& b) {
    return a.arrival < b.arrival;
  });
  util::Rng deadlines_rng = rng.split();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    stamp(tasks[i], i,
          deadlines_rng.uniform(config.deadline_factor_lo, config.deadline_factor_hi),
          row_means);
  }
  return tasks;
}

}  // namespace

Workload generate_workload(const hetero::EetMatrix& eet, const GeneratorConfig& config) {
  require_input(config.duration > 0.0, "generator: duration must be > 0");
  require_input(config.deadline_factor_lo > 0.0 &&
                    config.deadline_factor_hi >= config.deadline_factor_lo,
                "generator: deadline factors must satisfy 0 < lo <= hi");

  // Mean EET per type, once per trace instead of once per task.
  std::vector<double> row_means(eet.task_type_count());
  for (std::size_t type = 0; type < row_means.size(); ++type) {
    row_means[type] = eet.row_mean(type);
  }
  util::Rng rng(config.seed);
  // Arrival times never decrease and ids ascend, so the trace is already
  // in (arrival, id) order and the Workload constructor does not sort.
  return Workload(config.per_type_arrivals.empty()
                      ? aggregate_tasks(eet, config, row_means, rng)
                      : per_type_tasks(eet, config, row_means, rng));
}

GeneratorConfig config_for_offered_load(
    const hetero::EetMatrix& eet, const std::vector<hetero::MachineTypeId>& machine_types,
    double rho, core::SimTime duration, std::uint64_t seed) {
  require_input(rho > 0.0, "config_for_offered_load: rho must be > 0");
  GeneratorConfig config;
  config.rate = rho * system_capacity(eet, machine_types, {});
  config.duration = duration;
  config.seed = seed;
  return config;
}

GeneratorConfig config_for_intensity(
    const hetero::EetMatrix& eet, const std::vector<hetero::MachineTypeId>& machine_types,
    Intensity intensity, core::SimTime duration, std::uint64_t seed) {
  return config_for_offered_load(eet, machine_types, intensity_offered_load(intensity),
                                 duration, seed);
}

}  // namespace e2c::workload
