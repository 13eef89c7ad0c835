// Reproduces Table 1 of the paper: positioning of E2C against other
// simulators on three axes — GUI, heterogeneous-computing support, workload
// generator. The other simulators' rows are literature claims we cannot
// execute; E2C's row, however, is machine-checkable: this bench *proves*
// each claimed feature by exercising it.
#include <iostream>

#include "bench_common.hpp"
#include "exp/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/string_util.hpp"
#include "viz/controller.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace e2c;

  std::cout << "==== Table 1 — positioning of E2C (machine-checked row) ====\n\n"
            << "simulator    | language | GUI | heterogeneous | workload generator\n"
            << "CloudSim     | Java     |  x  |       x       | limited   (literature)\n"
            << "iFogSim      | Java     |  x  |       x       | limited   (literature)\n"
            << "EdgeCloudSim | Java     |  x  |       x       | yes       (literature)\n"
            << "iCanCloud    | C++      | yes |       x       | x         (literature)\n"
            << "TeachCloud   | Java     | yes |       x       | limited   (literature)\n"
            << "E2C          | C++ (*)  | yes |      yes      | yes       (checked below)\n"
            << "(*) this reproduction; the original E2C is Python.\n\n";

  bool ok = true;

  // --- GUI: the control surface behind the buttons exists and works.
  {
    auto factory = [] {
      auto system = exp::heterogeneous_classroom();
      const auto machine_types = exp::machine_types_of(system);
      const auto generator = workload::config_for_intensity(
          system.eet, machine_types, workload::Intensity::kLow, 20.0, 1);
      auto simulation =
          std::make_unique<sched::Simulation>(system, sched::make_policy("MECT"));
      simulation->load(workload::generate_workload(system.eet, generator));
      return simulation;
    };
    viz::SimulationController controller(factory);
    controller.set_sleeper([](std::chrono::duration<double>) {});
    const bool stepped = controller.increment();       // the "Increment" button
    controller.play();                                 // the "Play" button
    const bool finished = controller.state() == viz::RunState::kFinished;
    controller.reset();                                // the "Reset" button
    const bool reset_ok = controller.state() == viz::RunState::kReady;
    ok &= bench::check(stepped && finished && reset_ok,
                       "GUI control surface: Play / Increment / Reset / speed dial", "feature");
  }

  // --- Heterogeneous computing: inconsistent EET accepted and exploited.
  {
    const auto system = exp::heterogeneous_classroom();
    const bool inconsistent = !system.eet.is_consistent() && !system.eet.is_homogeneous();
    ok &= bench::check(inconsistent,
                       "inconsistent heterogeneity (GPU/FPGA/ASIC) modeled via the EET matrix",
                       "feature");
    // And the homogeneous degenerate case also works (CloudSim-style).
    ok &= bench::check(exp::homogeneous_classroom().eet.is_homogeneous(),
                       "homogeneous systems as the degenerate EET case", "feature");
  }

  // --- Workload generator: distributions, intensities, deadlines.
  {
    const auto system = exp::heterogeneous_classroom();
    const auto machine_types = exp::machine_types_of(system);
    bool generated_all = true;
    for (auto kind : {workload::ArrivalKind::kPoisson, workload::ArrivalKind::kUniform,
                      workload::ArrivalKind::kNormal, workload::ArrivalKind::kConstant,
                      workload::ArrivalKind::kBurst}) {
      auto generator = workload::config_for_intensity(
          system.eet, machine_types, workload::Intensity::kMedium, 50.0, 2);
      generator.arrival = kind;
      const auto trace = workload::generate_workload(system.eet, generator);
      generated_all &= !trace.empty();
    }
    ok &= bench::check(generated_all,
                       "workload generator: 5 arrival processes x calibrated intensities",
                       "feature");
  }

  // --- Pluggable scheduling: the full built-in roster resolves.
  {
    bool all = true;
    for (const char* name :
         {"FCFS", "MEET", "MECT", "MM", "MMU", "MSD", "ELARE", "FELARE"}) {
      all &= sched::PolicyRegistry::instance().contains(name);
    }
    ok &= bench::check(all,
                       "all paper policies registered (immediate + batch, incl. ELARE/FELARE)",
                       "feature");
  }
  return ok ? 0 : 1;
}
