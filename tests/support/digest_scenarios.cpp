#include "support/digest_scenarios.hpp"

#include "exp/scenario.hpp"
#include "workload/generator.hpp"

namespace e2c::test {

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

}  // namespace e2c::test
