// Unit tests for workload-trace analysis (workload/trace_stats.hpp).
#include "workload/trace_stats.hpp"

#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::workload::compute_trace_stats;
using e2c::workload::TaskDef;
using e2c::workload::Workload;

EetMatrix sample_eet() {
  return EetMatrix({"T1", "T2"}, {"m0", "m1"}, {{2.0, 4.0}, {6.0, 2.0}});
}

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

TEST(TraceStats, EmptyTrace) {
  const auto stats = compute_trace_stats(Workload{}, sample_eet());
  EXPECT_EQ(stats.task_count, 0u);
  EXPECT_DOUBLE_EQ(stats.arrival_rate, 0.0);
  EXPECT_EQ(stats.type_counts.size(), 2u);
}

TEST(TraceStats, HandComputedValues) {
  // Arrivals 0, 2, 4, 6: span 6, rate 4/6, gaps all 2 (cv 0).
  const EetMatrix eet = sample_eet();
  Workload workload({
      make_task(0, 0, 0.0, 6.0),   // factor (6-0)/3 = 2
      make_task(1, 0, 2.0, 14.0),  // factor 12/3 = 4
      make_task(2, 1, 4.0, 12.0),  // factor 8/4 = 2
      make_task(3, 1, 6.0, e2c::core::kTimeInfinity),
  });
  const auto stats = compute_trace_stats(workload, eet);
  EXPECT_EQ(stats.task_count, 4u);
  EXPECT_DOUBLE_EQ(stats.span, 6.0);
  EXPECT_NEAR(stats.arrival_rate, 4.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.interarrival_mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.interarrival_cv, 0.0);
  EXPECT_EQ(stats.type_counts[0], 2u);
  EXPECT_EQ(stats.type_counts[1], 2u);
  EXPECT_DOUBLE_EQ(stats.type_fractions[0], 0.5);
  EXPECT_NEAR(stats.deadline_factor_mean, (2.0 + 4.0 + 2.0) / 3.0, 1e-12);
  EXPECT_EQ(stats.infinite_deadlines, 1u);
}

TEST(TraceStats, PoissonTraceHasCvNearOne) {
  const auto system = e2c::exp::heterogeneous_classroom();
  const auto machine_types = e2c::exp::machine_types_of(system);
  const auto generator = e2c::workload::config_for_intensity(
      system.eet, machine_types, e2c::workload::Intensity::kMedium, 2000.0, 5);
  const auto trace = e2c::workload::generate_workload(system.eet, generator);
  const auto stats = compute_trace_stats(trace, system.eet);
  EXPECT_NEAR(stats.interarrival_cv, 1.0, 0.15);  // memoryless signature
}

TEST(TraceStats, BurstTraceHasCvAboveOne) {
  const auto system = e2c::exp::heterogeneous_classroom();
  const auto machine_types = e2c::exp::machine_types_of(system);
  auto generator = e2c::workload::config_for_intensity(
      system.eet, machine_types, e2c::workload::Intensity::kMedium, 2000.0, 5);
  generator.arrival = e2c::workload::ArrivalKind::kBurst;
  const auto trace = e2c::workload::generate_workload(system.eet, generator);
  const auto stats = compute_trace_stats(trace, system.eet);
  EXPECT_GT(stats.interarrival_cv, 1.1);
}

TEST(TraceStats, OfferedLoadRecoversIntensityPreset) {
  // A trace generated at intensity X must report an offered load near X's
  // fraction — the analysis inverts the generator's calibration.
  const auto system = e2c::exp::heterogeneous_classroom();
  const auto machine_types = e2c::exp::machine_types_of(system);
  for (const auto intensity :
       {e2c::workload::Intensity::kLow, e2c::workload::Intensity::kHigh}) {
    const auto generator = e2c::workload::config_for_intensity(
        system.eet, machine_types, intensity, 3000.0, 11);
    const auto trace = e2c::workload::generate_workload(system.eet, generator);
    const double rho = e2c::workload::offered_load(trace, system.eet, machine_types);
    EXPECT_NEAR(rho, e2c::workload::intensity_offered_load(intensity),
                0.15 * e2c::workload::intensity_offered_load(intensity))
        << e2c::workload::intensity_name(intensity);
  }
}

TEST(TraceStats, CsvRowsWellFormed) {
  const EetMatrix eet = sample_eet();
  Workload workload({make_task(0, 0, 0.0, 6.0), make_task(1, 1, 1.0, 9.0)});
  const auto rows =
      e2c::workload::trace_stats_csv(compute_trace_stats(workload, eet), eet);
  ASSERT_GE(rows.size(), 9u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"metric", "value"}));
  EXPECT_EQ(rows[1][1], "2");  // task_count
}

TEST(TraceStats, RejectsForeignTaskTypes) {
  Workload workload({make_task(0, 9, 0.0, 5.0)});
  EXPECT_THROW((void)compute_trace_stats(workload, sample_eet()), e2c::InputError);
}

}  // namespace
