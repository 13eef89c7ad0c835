/// \file generator.hpp
/// \brief Seeded workload generator with calibrated intensity presets.
///
/// The class assignment of the paper (§4) uses "three workload traces with
/// arrival intensities ranging from low, medium, to high to stress the
/// system at different levels". We make intensity quantitative: the offered
/// load rho is the ratio of the aggregate arrival rate to the system's
/// aggregate service capacity, so rho = 0.5 under-loads, 1.0 saturates and
/// 2.0 over-loads any system regardless of its EET matrix.
///
/// Aggregate mode builds the trace in one pass: for each arrival the
/// emitter (for_each_arrival) yields, it draws the type and the deadline
/// factor from their own split streams and writes the finished TaskDef. A
/// trace expected to take 32 MiB or more is written into a vector reserved
/// ahead on huge pages (util/large_buffer); a smaller one grows as it is
/// written and is then shrunk to its size, so the many small traces a sweep
/// caches hold no slack. Per-type mode merges its streams with a stable sort
/// and stamps ids and deadlines after it. Either way the Workload
/// constructor checks the trace and learns its facts in one scan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetero/eet_matrix.hpp"
#include "workload/arrival.hpp"
#include "workload/workload.hpp"

namespace e2c::workload {

/// The three intensity levels of the class assignment.
enum class Intensity : int { kLow, kMedium, kHigh };

/// Display name ("low", "medium", "high").
[[nodiscard]] const char* intensity_name(Intensity intensity) noexcept;

/// Parses a case-insensitive intensity_name(); throws e2c::InputError on
/// unknown names.
[[nodiscard]] Intensity parse_intensity(const std::string& name);

/// Offered-load fraction for a preset: low=0.5, medium=1.0, high=2.0.
[[nodiscard]] double intensity_offered_load(Intensity intensity) noexcept;

/// Arrival process of ONE task type, for the paper's per-type workload
/// definition ("the task types, arrival distribution for each task type,
/// and their arrival duration").
struct TypeArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 1.0;  ///< arrivals per second of this task type (> 0)
};

/// Everything the generator needs besides the EET matrix.
struct GeneratorConfig {
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate = 1.0;                ///< aggregate arrivals per second (> 0)
  core::SimTime duration = 100.0;   ///< arrival window [0, duration)
  /// Per-type mix. Empty means the uniform default mix, whose types are
  /// drawn in O(1) each by Rng::unit_weight_index. An explicit mix needs
  /// one weight per task type, none negative and not all zero, and each
  /// draw scans it with Rng::weighted_index. Both give the same trace for
  /// the same seed when every weight is 1.
  std::vector<double> type_weights;
  /// Per-type arrival processes (one entry per task type). When non-empty
  /// this supersedes (arrival, rate, type_weights): each type gets its own
  /// independent stream and the streams are merged by arrival time.
  std::vector<TypeArrivalSpec> per_type_arrivals;
  /// Deadline = arrival + factor * mean-EET(type), factor uniform in
  /// [deadline_factor_lo, deadline_factor_hi]. A factor comfortably above 1
  /// leaves slack for queueing; tight factors create urgency.
  double deadline_factor_lo = 2.0;
  double deadline_factor_hi = 4.0;
  std::uint64_t seed = 1;
};

/// Aggregate service capacity (tasks/second) of a system: the sum over
/// machine instances of the reciprocal of the mix-weighted mean EET on that
/// machine's type. \p machine_types lists the machine type of each instance.
/// Empty \p type_weights means a uniform mix.
[[nodiscard]] double system_capacity(const hetero::EetMatrix& eet,
                                     const std::vector<hetero::MachineTypeId>& machine_types,
                                     const std::vector<double>& type_weights);

/// Generates a workload trace from \p config against \p eet. Task ids are
/// assigned in arrival order starting at 0. Deterministic in config.seed.
/// Throws InputError for a bad config, including an explicit type mix that
/// system_capacity would reject (wrong size, a negative weight, all zero).
[[nodiscard]] Workload generate_workload(const hetero::EetMatrix& eet,
                                         const GeneratorConfig& config);

/// Builds a config whose rate realizes offered load \p rho on the system
/// described by (eet, machine_types): rate = rho * system_capacity.
[[nodiscard]] GeneratorConfig config_for_offered_load(
    const hetero::EetMatrix& eet, const std::vector<hetero::MachineTypeId>& machine_types,
    double rho, core::SimTime duration, std::uint64_t seed);

/// Convenience: config for an intensity preset (low/medium/high).
[[nodiscard]] GeneratorConfig config_for_intensity(
    const hetero::EetMatrix& eet, const std::vector<hetero::MachineTypeId>& machine_types,
    Intensity intensity, core::SimTime duration, std::uint64_t seed);

}  // namespace e2c::workload
