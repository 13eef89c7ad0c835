// Unit tests for reports and metrics (reports/report.hpp, reports/metrics.hpp).
#include "reports/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "reports/metrics.hpp"
#include "sched/registry.hpp"
#include "util/csv.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::reports::compute_metrics;
using e2c::reports::Metrics;
using e2c::sched::Simulation;
using e2c::workload::TaskDef;
using e2c::workload::Workload;

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

// A small finished simulation shared by the report tests: 2 machines,
// 3 tasks, one of which misses its deadline.
class ReportsTest : public testing::Test {
 protected:
  void SetUp() override {
    EetMatrix eet({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {5.0, 2.0}});
    simulation_ = std::make_unique<Simulation>(
        e2c::sched::make_default_system(std::move(eet)), e2c::sched::make_policy("MECT"));
    simulation_->load(Workload({
        make_task(0, 0, 0.0, 100.0),  // completes on m0 at 4
        make_task(1, 1, 0.0, 100.0),  // completes on m1 at 2
        make_task(2, 0, 0.0, 3.0),    // dropped (m1 at 0+6 or m0 4+4)
    }));
    simulation_->run();
  }
  std::unique_ptr<Simulation> simulation_;
};

TEST_F(ReportsTest, MetricsHeadlineNumbers) {
  const Metrics metrics = compute_metrics(*simulation_);
  EXPECT_EQ(metrics.total_tasks, 3u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.cancelled + metrics.dropped, 1u);
  EXPECT_NEAR(metrics.completion_percent, 200.0 / 3.0, 1e-9);
  EXPECT_NEAR(metrics.completion_percent + metrics.cancelled_percent +
                  metrics.dropped_percent,
              100.0, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.makespan, 4.0);
  EXPECT_GT(metrics.total_energy_joules, 0.0);
  EXPECT_GT(metrics.energy_per_completed_task, 0.0);
  // Per-type and per-machine detail lives on the Simulation, not in Metrics.
  ASSERT_EQ(simulation_->type_ontime_rates().size(), 2u);
  ASSERT_EQ(simulation_->machine_count(), 2u);
  EXPECT_LE(metrics.type_fairness_jain, 1.0);
  EXPECT_GT(metrics.type_fairness_jain, 0.0);
}

TEST_F(ReportsTest, TaskReportShape) {
  const auto rows = e2c::reports::task_report(*simulation_);
  ASSERT_EQ(rows.size(), 4u);  // header + 3 tasks
  EXPECT_EQ(rows[0][0], "task_id");
  EXPECT_EQ(rows[1][0], "0");
  EXPECT_EQ(rows[1][2], "completed");
  // Every data row has the same number of fields as the header.
  for (const auto& row : rows) EXPECT_EQ(row.size(), rows[0].size());
}

TEST_F(ReportsTest, MachineReportShape) {
  const auto rows = e2c::reports::machine_report(*simulation_);
  ASSERT_EQ(rows.size(), 3u);  // header + 2 machines
  EXPECT_EQ(rows[0][0], "machine");
  EXPECT_EQ(rows[1][0], "m0");
  EXPECT_EQ(rows[2][0], "m1");
}

TEST_F(ReportsTest, SummaryReportContainsPolicyAndCounts) {
  const auto rows = e2c::reports::summary_report(*simulation_);
  bool saw_policy = false;
  bool saw_completion = false;
  for (const auto& row : rows) {
    if (row[0] == "policy") {
      saw_policy = true;
      EXPECT_EQ(row[1], "MECT");
    }
    if (row[0] == "completion_percent") {
      saw_completion = true;
      EXPECT_EQ(row[1], "66.67");
    }
  }
  EXPECT_TRUE(saw_policy);
  EXPECT_TRUE(saw_completion);
}

// The per-type and per-machine rows close the summary, in type and machine
// order, with the values they had when Metrics carried them: T1 met one
// deadline of two, T2 its only one; m0 was busy 4 s and m1 2 s of 4 s.
TEST_F(ReportsTest, SummaryReportEndsWithPerTypeAndPerMachineRows) {
  const auto rows = e2c::reports::summary_report(*simulation_);
  ASSERT_GE(rows.size(), 5u);
  const std::vector<std::vector<std::string>> tail(rows.end() - 4, rows.end());
  const std::vector<std::vector<std::string>> expected = {
      {"completion_rate[T1]", "0.5000"},
      {"completion_rate[T2]", "1.0000"},
      {"utilization[m0]", "1.0000"},
      {"utilization[m1]", "0.5000"},
  };
  EXPECT_EQ(tail, expected);
}

TEST_F(ReportsTest, FullReportExtendsTaskReportWithEet) {
  const auto task_rows = e2c::reports::task_report(*simulation_);
  const auto full_rows = e2c::reports::full_report(*simulation_);
  ASSERT_EQ(full_rows.size(), task_rows.size());
  EXPECT_EQ(full_rows[0].size(), task_rows[0].size() + 2);  // + eet_m0, eet_m1
  EXPECT_EQ(full_rows[0].back(), "eet_m1");
  EXPECT_EQ(full_rows[1].back(), "6.00");  // T1 on m1
}

TEST_F(ReportsTest, MissedReportListsOnlyMissed) {
  const auto rows = e2c::reports::missed_report(*simulation_);
  ASSERT_EQ(rows.size(), 2u);  // header + 1 missed
  EXPECT_EQ(rows[1][0], "2");
}

TEST_F(ReportsTest, BuildReportDispatch) {
  for (const auto kind :
       {e2c::reports::ReportKind::kTask, e2c::reports::ReportKind::kMachine,
        e2c::reports::ReportKind::kSummary, e2c::reports::ReportKind::kFull,
        e2c::reports::ReportKind::kMissed}) {
    const auto rows = e2c::reports::build_report(*simulation_, kind);
    EXPECT_GE(rows.size(), 1u) << e2c::reports::report_kind_name(kind);
  }
}

TEST_F(ReportsTest, SaveReportWritesParsableCsv) {
  const std::string path = testing::TempDir() + "/e2c_report_test.csv";
  e2c::reports::save_report_csv(*simulation_, e2c::reports::ReportKind::kTask, path);
  const auto parsed = e2c::util::read_csv_doc(path);
  EXPECT_EQ(parsed.row_count(), 4u);
  std::remove(path.c_str());
}

TEST(MetricsEdge, EmptyWorkloadIsAllZeros) {
  EetMatrix eet({"T1"}, {"m0"}, {{1.0}});
  Simulation simulation(e2c::sched::make_default_system(std::move(eet)),
                        e2c::sched::make_policy("FCFS"));
  simulation.load(Workload(std::vector<TaskDef>{}));
  simulation.run();
  const Metrics metrics = compute_metrics(simulation);
  EXPECT_EQ(metrics.total_tasks, 0u);
  EXPECT_DOUBLE_EQ(metrics.completion_percent, 0.0);
  EXPECT_DOUBLE_EQ(metrics.makespan, 0.0);
  EXPECT_DOUBLE_EQ(metrics.energy_per_completed_task, 0.0);
}

}  // namespace
