// Shared scaffolding for the figure-reproduction benches: consistent spec
// defaults, chart + CSV printing, and shape-check reporting.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart.hpp"

namespace e2c::bench {

/// Default sweep parameters used by the figure benches. 20 replications of a
/// 300-second arrival window keep each bench under a few seconds while
/// giving tight confidence intervals.
inline exp::ExperimentSpec figure_spec(sched::SystemConfig system,
                                       std::vector<std::string> policies) {
  exp::ExperimentSpec spec;
  spec.system = std::move(system);
  spec.policies = std::move(policies);
  spec.intensities = {workload::Intensity::kLow, workload::Intensity::kMedium,
                      workload::Intensity::kHigh};
  spec.replications = 20;
  spec.duration = 300.0;
  spec.base_seed = 20230607;  // arbitrary fixed seed for reproducibility
  return spec;
}

/// Prints the figure: title banner, grouped bar chart, CSV rows.
inline void print_figure(const exp::ExperimentResult& result, const std::string& title) {
  std::cout << "==== " << title << " ====\n\n";
  std::cout << viz::render_bar_chart(exp::completion_chart(result, title)) << "\n";
  std::cout << util::to_csv(exp::result_csv(result)) << "\n";
}

/// Reports one paper-vs-measured check and returns whether it held. \p tag
/// names its kind: "shape" for a qualitative result, "value" for a number
/// the paper quotes, "feature" for a capability the paper claims.
inline bool check(bool condition, const std::string& what, const std::string& tag = "shape") {
  std::cout << "[" << tag << (condition ? " OK]   " : " FAIL] ") << what << "\n";
  return condition;
}

/// Peak resident set size (VmHWM) of this process in kB; 0 where /proc is
/// unavailable (non-Linux). Megarun-class benches report it so CI can catch
/// a layout change that silently doubles the per-task footprint.
inline long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  long kb = 0;
  while (std::getline(status, line)) {
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) return kb;
  }
  return 0;
}

/// Nanoseconds of wallclock per processed event; 0 for an empty run.
inline double ns_per_event(double seconds, std::uint64_t events) {
  return events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(events);
}

}  // namespace e2c::bench
