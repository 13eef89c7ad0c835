#include "support/digest_scenarios.hpp"

#include <cstring>

#include "exp/scenario.hpp"
#include "workload/generator.hpp"

namespace e2c::test {

namespace {

class Fnv1a {
 public:
  void add_u64(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double value) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add_u64(bits);
  }
  // Sentinel times hash exactly as the old optional columns did: a
  // presence word followed by the value (0.0 when unset).
  void add_time(double value) noexcept {
    const bool set = core::time_set(value);
    add_u64(set ? 1u : 0u);
    add_double(set ? value : 0.0);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace


sched::SystemConfig plain_system() { return exp::heterogeneous_classroom(2); }

sched::SystemConfig faulty_system() {
  sched::SystemConfig config = exp::heterogeneous_classroom(2);
  config.faults.enabled = true;
  config.faults.mtbf = 25.0;
  config.faults.mttr = 3.0;
  config.faults.seed = 99;
  return config;
}

sched::SystemConfig autoscaled_system() {
  sched::SystemConfig config = exp::heterogeneous_classroom(2);
  config.autoscaler.enabled = true;
  config.autoscaler.interval = 4.0;
  config.autoscaler.queue_high = 4;
  config.autoscaler.queue_low = 1;
  config.autoscaler.boot_delay = 1.5;
  config.autoscaler.min_online = 1;
  config.autoscaler.initially_offline = {2, 3};
  return config;
}

workload::Workload digest_workload(const sched::SystemConfig& config, double rho,
                                   double duration) {
  const auto machine_types = exp::machine_types_of(config);
  const auto generator = workload::config_for_offered_load(config.eet, machine_types, rho,
                                                           duration, /*seed=*/20230607);
  return workload::generate_workload(config.eet, generator);
}

std::uint64_t digest_of(const sched::Simulation& simulation) {
  Fnv1a digest;
  const auto& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    digest.add_u64(state.id(i));
    digest.add_u64(state.type(i));
    digest.add_u64(static_cast<std::uint64_t>(state.status[i]));
    digest.add_u64(state.machine[i] == workload::kNoMachine
                       ? ~0ull
                       : static_cast<std::uint64_t>(state.machine[i]));
    digest.add_time(state.assignment_time[i]);
    digest.add_time(state.start_time[i]);
    digest.add_time(state.completion_time(i));
    digest.add_time(state.missed_time(i));
    digest.add_u64(state.retries(i));
    digest.add_double(state.useful_seconds[i]);
    digest.add_double(state.lost_seconds(i));
    digest.add_double(state.checkpoint_overhead_seconds(i));
    digest.add_double(state.machine_seconds[i]);
  }
  const auto& counters = simulation.counters();
  digest.add_u64(counters.total);
  digest.add_u64(counters.completed);
  digest.add_u64(counters.cancelled);
  digest.add_u64(counters.dropped);
  digest.add_u64(counters.failed);
  digest.add_u64(counters.requeued);
  digest.add_double(simulation.engine().now());
  digest.add_u64(simulation.engine().processed_count());
  digest.add_double(simulation.total_energy_joules());
  return digest.value();
}

}  // namespace e2c::test
