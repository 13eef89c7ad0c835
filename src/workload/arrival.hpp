/// \file arrival.hpp
/// \brief Arrival processes for workload generation.
///
/// The paper's workload component lets the user pick an arrival distribution
/// per task type. E2C-Sim++ implements the standard set used in scheduling
/// studies: Poisson (exponential inter-arrivals), uniform, normal
/// (truncated at a small positive floor), constant spacing, and an on/off
/// burst process for stress scenarios.
///
/// for_each_arrival() is an emitter, not a container: it hands each arrival
/// instant to a callback as it is drawn. The generator builds finished task
/// records straight from it in one pass, with no intermediate vector of
/// times.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>

#include "core/sim_time.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace e2c::workload {

/// Kinds of arrival processes available to the generator.
enum class ArrivalKind : int {
  kPoisson,   ///< exponential inter-arrival times (memoryless)
  kUniform,   ///< inter-arrivals uniform in [0, 2/rate]
  kNormal,    ///< inter-arrivals normal(1/rate, 0.25/rate), floored at epsilon
  kConstant,  ///< fixed spacing 1/rate
  kBurst,     ///< on/off: bursts of rapid arrivals separated by quiet gaps
};

/// Display name ("poisson", "uniform", ...).
[[nodiscard]] const char* arrival_kind_name(ArrivalKind kind) noexcept;

/// Parses a case-insensitive name; throws e2c::InputError on unknown names.
[[nodiscard]] ArrivalKind parse_arrival_kind(const std::string& name);

/// Draws the arrival instants in [0, duration) of process \p kind at mean
/// rate \p rate (tasks per simulated second) and calls \p emit(t) for each,
/// in increasing order. The count is stochastic for every kind except
/// kConstant. Requires rate > 0 and duration > 0 (e2c::InputError).
template <typename Emit>
void for_each_arrival(ArrivalKind kind, double rate, core::SimTime duration, util::Rng& rng,
                      Emit&& emit) {
  require_input(rate > 0.0, "arrivals: rate must be > 0");
  require_input(duration > 0.0, "arrivals: duration must be > 0");
  constexpr double kMinGap = 1e-6;  // keeps inter-arrivals strictly positive

  const double mean_gap = 1.0 / rate;
  core::SimTime t = 0.0;

  switch (kind) {
    case ArrivalKind::kPoisson:
      for (t = rng.exponential(rate); t < duration; t += rng.exponential(rate)) emit(t);
      break;
    case ArrivalKind::kUniform:
      for (t = rng.uniform(kMinGap, 2.0 * mean_gap); t < duration;
           t += rng.uniform(kMinGap, 2.0 * mean_gap)) {
        emit(t);
      }
      break;
    case ArrivalKind::kNormal:
      for (t = std::max(kMinGap, rng.normal(mean_gap, 0.25 * mean_gap)); t < duration;
           t += std::max(kMinGap, rng.normal(mean_gap, 0.25 * mean_gap))) {
        emit(t);
      }
      break;
    case ArrivalKind::kConstant:
      for (t = mean_gap; t < duration; t += mean_gap) emit(t);
      break;
    case ArrivalKind::kBurst: {
      // On/off process tuned to preserve the requested mean rate:
      // bursts of ~8 tasks at 4x rate, separated by quiet gaps sized so the
      // long-run average remains `rate`.
      constexpr double kBurstSize = 8.0;
      constexpr double kSpeedup = 4.0;
      const double burst_gap = mean_gap / kSpeedup;
      const double burst_span = kBurstSize * burst_gap;
      const double cycle_span = kBurstSize * mean_gap;  // time a burst "covers"
      const double quiet_gap = cycle_span - burst_span;
      while (t < duration) {
        const auto burst_count = static_cast<std::size_t>(rng.uniform_int(4, 12));
        for (std::size_t i = 0; i < burst_count && t < duration; ++i) {
          t += rng.exponential(1.0 / burst_gap);
          if (t < duration) emit(t);
        }
        t += std::max(kMinGap, rng.normal(quiet_gap, 0.25 * quiet_gap));
      }
      break;
    }
  }
}

}  // namespace e2c::workload
