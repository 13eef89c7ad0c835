/// \file digest_scenarios.hpp
/// \brief The run-digest scenario set: the systems and generated workloads
/// whose full per-task records the run-digest goldens pin, and the digest
/// itself. The property tests check record invariants over the same runs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sched/simulation.hpp"
#include "workload/workload.hpp"

namespace e2c::test {

/// The heterogeneous classroom with queue capacity 2.
[[nodiscard]] sched::SystemConfig plain_system();
/// plain_system() with stochastic machine failures (MTBF 25, MTTR 3, seed 99).
[[nodiscard]] sched::SystemConfig faulty_system();
/// plain_system() under the autoscaler, two machines initially offline.
[[nodiscard]] sched::SystemConfig autoscaled_system();

/// One golden scenario; it runs under every registered policy.
struct DigestScenario {
  const char* name;
  sched::SystemConfig (*make)();
};

inline constexpr DigestScenario kDigestScenarios[] = {
    {"plain", plain_system},
    {"faults", faulty_system},
    {"autoscaled", autoscaled_system},
};

/// Offered load and duration of the golden scenarios' workloads.
inline constexpr double kDigestRho = 1.3;
inline constexpr double kDigestDuration = 40.0;

/// Machine-queue capacities of the deep-queue goldens: the heterogeneous
/// classroom under every batch policy at kDeepQueueRho for kDeepQueueDuration.
inline constexpr std::size_t kDeepQueueCapacities[] = {1, 8};
inline constexpr double kDeepQueueRho = 4.0;
inline constexpr double kDeepQueueDuration = 60.0;

/// The generated workload of a golden run on \p config (seed 20230607).
[[nodiscard]] workload::Workload digest_workload(const sched::SystemConfig& config, double rho,
                                                 double duration);

/// FNV-1a digest of every observable of a finished run: the complete
/// per-task outcome records (timestamps bitwise), the outcome counters, the
/// clock, the event count and the energy.
[[nodiscard]] std::uint64_t digest_of(const sched::Simulation& simulation);

}  // namespace e2c::test
