// End-to-end integration tests across modules: the student workflow
// (CSV in -> simulate -> CSV out), custom-policy plug-in, paired policy
// comparisons and the paper's expected qualitative orderings.
#include <gtest/gtest.h>

#include <cstdio>

#include "e2c.hpp"
#include "support/event_trace.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::sched::Simulation;
using e2c::workload::Intensity;
using e2c::workload::Workload;

TEST(Integration, StudentCsvWorkflow) {
  // 1. Instructor ships an EET CSV; student loads it.
  const std::string eet_path = testing::TempDir() + "/e2c_it_eet.csv";
  const std::string workload_path = testing::TempDir() + "/e2c_it_workload.csv";
  const std::string report_path = testing::TempDir() + "/e2c_it_report.csv";

  e2c::exp::heterogeneous_classroom().eet.save_csv(eet_path);
  const EetMatrix eet = EetMatrix::load_csv(eet_path);
  EXPECT_EQ(eet.task_type_count(), 5u);

  // 2. Student generates a medium-intensity workload and saves it as CSV.
  const auto system = e2c::sched::make_default_system(eet, 2);
  std::vector<e2c::hetero::MachineTypeId> machine_types;
  for (const auto& machine : system.machines) machine_types.push_back(machine.type);
  const auto generator = e2c::workload::config_for_intensity(
      eet, machine_types, Intensity::kMedium, 60.0, 99);
  const Workload generated = e2c::workload::generate_workload(eet, generator);
  generated.save_csv(workload_path, eet);

  // 3. The saved trace reloads identically (round trip within CSV precision).
  const Workload reloaded = Workload::load_csv(workload_path, eet);
  ASSERT_EQ(reloaded.size(), generated.size());

  // 4. Simulate with a batch policy and save the summary report.
  Simulation simulation(system, e2c::sched::make_policy("MM"));
  simulation.load(reloaded);
  simulation.run();
  e2c::reports::save_report_csv(simulation, e2c::reports::ReportKind::kSummary,
                                report_path);

  // 5. The report parses and is self-consistent.
  const auto report = e2c::util::read_csv_doc(report_path);
  EXPECT_GT(report.row_count(), 5u);
  bool found_total = false;
  for (std::size_t r = 0; r < report.row_count(); ++r) {
    const auto row = report.row(r);
    if (row[0] == "total_tasks") {
      found_total = true;
      EXPECT_EQ(row[1], std::to_string(generated.size()));
    }
  }
  EXPECT_TRUE(found_total);

  std::remove(eet_path.c_str());
  std::remove(workload_path.c_str());
  std::remove(report_path.c_str());
}

// The worked "plug in your own scheduling method" flow: a round-robin policy
// registered at runtime and selected by name, exactly like a student would.
class RoundRobinPolicy final : public e2c::sched::Policy {
 public:
  [[nodiscard]] std::string name() const override { return "IT-RoundRobin"; }
  [[nodiscard]] e2c::sched::PolicyMode mode() const override {
    return e2c::sched::PolicyMode::kImmediate;
  }
  void schedule_into(e2c::sched::SchedulingContext& context,
                     std::vector<e2c::sched::Assignment>& assignments) override {
    assignments.clear();
    for (const auto* task : context.batch_queue()) {
      const std::size_t machine = next_++ % context.machines().size();
      assignments.push_back({task->id, context.machines()[machine].id});
      context.commit(*task, machine);
    }
  }

 private:
  std::size_t next_ = 0;
};

TEST(Integration, CustomPolicyPluginRoundTrip) {
  e2c::sched::PolicyRegistry::instance().register_policy(
      "IT-RoundRobin", [] { return std::make_unique<RoundRobinPolicy>(); });

  auto system = e2c::exp::heterogeneous_classroom();
  const auto machine_types = e2c::exp::machine_types_of(system);
  const auto generator = e2c::workload::config_for_intensity(
      system.eet, machine_types, Intensity::kLow, 40.0, 5);
  const Workload workload = e2c::workload::generate_workload(system.eet, generator);

  Simulation simulation(system, e2c::sched::make_policy("it-roundrobin"));
  simulation.load(workload);
  simulation.run();
  EXPECT_EQ(simulation.counters().total, workload.size());
  EXPECT_GT(simulation.counters().completed, 0u);

  // Round-robin actually rotated across all four machines.
  std::size_t machines_used = 0;
  for (std::size_t m = 0; m < simulation.machine_count(); ++m) {
    const auto stats = simulation.machine(m).finalize_stats(simulation.engine().now());
    if (stats.tasks_completed + stats.tasks_dropped > 0) ++machines_used;
  }
  EXPECT_EQ(machines_used, 4u);
}

TEST(Integration, PairedComparisonMectBeatsFcfsOnHetero) {
  // The class assignment's headline lesson: on a heterogeneous system under
  // load, completion-time-aware mapping beats FCFS. Paired workloads over
  // several replications make this robust.
  e2c::exp::ExperimentSpec spec;
  spec.system = e2c::exp::heterogeneous_classroom();
  spec.policies = {"FCFS", "MECT"};
  spec.intensities = {Intensity::kMedium};
  spec.replications = 6;
  spec.duration = 80.0;
  spec.base_seed = 11;
  const auto result = e2c::exp::run_experiment(spec, 2);
  EXPECT_GT(result.cell("MECT", Intensity::kMedium).mean_completion_percent(),
            result.cell("FCFS", Intensity::kMedium).mean_completion_percent());
}

TEST(Integration, BatchBeatsImmediateOnHeteroHighLoad) {
  // Second lesson: "batch policies outperform immediate scheduling policies
  // for heterogeneous systems" (§4), most visible under load.
  e2c::exp::ExperimentSpec spec;
  spec.system = e2c::exp::heterogeneous_classroom(2);
  spec.policies = {"FCFS", "MM"};
  spec.intensities = {Intensity::kHigh};
  spec.replications = 6;
  spec.duration = 80.0;
  spec.base_seed = 17;
  const auto result = e2c::exp::run_experiment(spec, 2);
  EXPECT_GT(result.cell("MM", Intensity::kHigh).mean_completion_percent(),
            result.cell("FCFS", Intensity::kHigh).mean_completion_percent());
}

TEST(Integration, FelareImprovesFairnessOverMinMin) {
  // FELARE's purpose: fairness across task types on heterogeneous systems.
  e2c::exp::ExperimentSpec spec;
  spec.system = e2c::exp::heterogeneous_classroom(2);
  spec.policies = {"MM", "FELARE"};
  spec.intensities = {Intensity::kHigh};
  spec.replications = 6;
  spec.duration = 80.0;
  spec.base_seed = 23;
  const auto result = e2c::exp::run_experiment(spec, 2);
  EXPECT_GE(result.cell("FELARE", Intensity::kHigh).mean_type_fairness() + 0.02,
            result.cell("MM", Intensity::kHigh).mean_type_fairness());
}

TEST(Integration, TraceCsvExportOfFullRun) {
  auto system = e2c::exp::homogeneous_classroom();
  const auto machine_types = e2c::exp::machine_types_of(system);
  const auto generator = e2c::workload::config_for_intensity(
      system.eet, machine_types, Intensity::kLow, 30.0, 3);
  const Workload workload = e2c::workload::generate_workload(system.eet, generator);

  Simulation simulation(system, e2c::sched::make_policy("MECT"));
  simulation.load(workload);
  e2c::test::EventTrace trace;
  trace.record(simulation.engine());

  const auto rows = trace.to_csv_rows();
  EXPECT_GT(rows.size(), workload.size());
  // Every simulation action is one of the five event classes.
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::string& priority = rows[r][1];
    EXPECT_TRUE(priority == "arrival" || priority == "completion" ||
                priority == "deadline" || priority == "schedule" ||
                priority == "control")
        << priority;
  }
}

TEST(Integration, ControllerDrivesFullClassScenario) {
  // GUI workflow end-to-end: build, step a bit, play to completion, reset,
  // run again; both runs agree (determinism through the controller).
  auto factory = [] {
    auto system = e2c::exp::heterogeneous_classroom();
    const auto machine_types = e2c::exp::machine_types_of(system);
    const auto generator = e2c::workload::config_for_intensity(
        system.eet, machine_types, Intensity::kMedium, 40.0, 21);
    const Workload workload = e2c::workload::generate_workload(system.eet, generator);
    auto simulation =
        std::make_unique<Simulation>(system, e2c::sched::make_policy("MSD"));
    simulation->load(workload);
    return simulation;
  };
  e2c::viz::SimulationController controller(factory);
  controller.set_sleeper([](std::chrono::duration<double>) {});
  for (int i = 0; i < 5; ++i) (void)controller.increment();
  controller.play();
  const auto first = controller.simulation().counters().completed;
  controller.reset();
  controller.run_to_completion();
  EXPECT_EQ(controller.simulation().counters().completed, first);
}

// The first \p count events a stepped run processes, one "time priority
// label" line each, with the time printed to round-trip exactly.
std::vector<std::string> first_steps(Simulation& simulation, std::size_t count) {
  std::vector<std::string> lines;
  while (lines.size() < count) {
    const auto next = simulation.engine().peek_next();
    if (!next) break;
    char time[32];
    std::snprintf(time, sizeof time, "%.17g", next->time);
    lines.push_back(std::string(time) + " " + e2c::core::event_priority_name(next->priority) +
                    " " + next->label);
    if (!simulation.step()) break;
  }
  return lines;
}

// Compares a stepped run with its pinned record; on a mismatch prints the
// whole actual sequence, ready to paste.
void expect_steps(const std::vector<std::string>& actual,
                  const std::vector<std::string>& expected) {
  if (actual == expected) return;
  std::string dump;
  for (const std::string& line : actual) dump += "      \"" + line + "\",\n";
  ADD_FAILURE() << "step sequence differs from the pinned one; actual:\n" << dump;
}

// Step mode's view of a run (the order, times, classes and labels of the
// events the "Increment" button walks through) is pinned for two runs: the
// examples/live_viz scenario, and ELARE under overload with deadlines tight
// enough that many fire. Calendar changes must keep both sequences.
TEST(Integration, StepModeGoldenLiveViz) {
  auto system = e2c::exp::heterogeneous_classroom(/*queue=*/2);
  const auto machine_types = e2c::exp::machine_types_of(system);
  const auto generator = e2c::workload::config_for_intensity(
      system.eet, machine_types, Intensity::kMedium, /*duration=*/40.0, /*seed=*/99);
  Simulation simulation(system, e2c::sched::make_policy("MM"));
  simulation.load(e2c::workload::generate_workload(system.eet, generator));
  expect_steps(first_steps(simulation, 40), {
      "0.14852482535659473 arrival arrival task=0",
      "0.14852482535659473 schedule invoke scheduler (MM)",
      "2.1485248253565947 completion complete task=0 machine=m3",
      "3.1132044459386519 arrival arrival task=1",
      "3.1132044459386519 schedule invoke scheduler (MM)",
      "5.1132044459386519 completion complete task=1 machine=m4",
      "5.7380380474077528 arrival arrival task=2",
      "5.7380380474077528 schedule invoke scheduler (MM)",
      "5.7718733525547057 arrival arrival task=3",
      "5.7718733525547057 schedule invoke scheduler (MM)",
      "6.7507565455325658 arrival arrival task=4",
      "6.7507565455325658 schedule invoke scheduler (MM)",
      "6.9718733525547059 completion complete task=3 machine=m4",
      "7.3799656170313277 arrival arrival task=5",
      "7.3799656170313277 schedule invoke scheduler (MM)",
      "7.5012437536117291 arrival arrival task=6",
      "7.5012437536117291 schedule invoke scheduler (MM)",
      "7.7380380474077528 completion complete task=2 machine=m2",
      "8.0316818616317249 arrival arrival task=7",
      "8.0316818616317249 schedule invoke scheduler (MM)",
      "8.7507565455325658 completion complete task=4 machine=m3",
      "9.5012437536117282 completion complete task=6 machine=m4",
      "9.948170170899953 arrival arrival task=8",
      "9.948170170899953 schedule invoke scheduler (MM)",
      "10.035788068692248 arrival arrival task=9",
      "10.035788068692248 schedule invoke scheduler (MM)",
      "10.738038047407752 completion complete task=5 machine=m2",
      "11.797199662098102 arrival arrival task=10",
      "11.797199662098102 schedule invoke scheduler (MM)",
      "11.948170170899953 completion complete task=8 machine=m3",
      "11.961785775351075 arrival arrival task=11",
      "11.961785775351075 schedule invoke scheduler (MM)",
      "12.149391129618731 arrival arrival task=12",
      "12.149391129618731 schedule invoke scheduler (MM)",
      "12.738038047407752 completion complete task=7 machine=m2",
      "13.961785775351075 completion complete task=11 machine=m4",
      "14.738038047407752 completion complete task=9 machine=m2",
      "14.76064441202924 arrival arrival task=13",
      "14.76064441202924 schedule invoke scheduler (MM)",
      "15.161785775351074 completion complete task=12 machine=m4"
  });
}

TEST(Integration, StepModeGoldenElareDeadlines) {
  auto system = e2c::exp::heterogeneous_classroom(/*queue=*/2);
  const auto machine_types = e2c::exp::machine_types_of(system);
  auto generator = e2c::workload::config_for_offered_load(
      system.eet, machine_types, /*rho=*/4.0, /*duration=*/20.0, /*seed=*/7);
  generator.deadline_factor_lo = 0.02;
  generator.deadline_factor_hi = 0.3;
  Simulation simulation(system, e2c::sched::make_policy("ELARE"));
  simulation.load(e2c::workload::generate_workload(system.eet, generator));
  expect_steps(first_steps(simulation, 40), {
      "0.15033538466258731 arrival arrival task=0",
      "0.15033538466258731 schedule invoke scheduler (ELARE)",
      "0.2546393357937845 arrival arrival task=1",
      "0.2546393357937845 schedule invoke scheduler (ELARE)",
      "0.2546393357937845 schedule invoke scheduler (ELARE)",
      "0.73652359869738837 arrival arrival task=2",
      "0.73652359869738837 schedule invoke scheduler (ELARE)",
      "0.8908220457052809 deadline deadline task=2",
      "1.1635404132165215 deadline deadline task=0",
      "1.2483631772638435 arrival arrival task=3",
      "1.2483631772638435 schedule invoke scheduler (ELARE)",
      "1.4546393357937846 completion complete task=1 machine=m4",
      "1.7449195187253923 deadline deadline task=3",
      "1.8334861066144326 arrival arrival task=4",
      "1.8334861066144326 schedule invoke scheduler (ELARE)",
      "2.19040635178433 arrival arrival task=5",
      "2.19040635178433 schedule invoke scheduler (ELARE)",
      "2.7664052119249192 deadline deadline task=5",
      "3.8334861066144326 completion complete task=4 machine=m2",
      "4.3881712935315083 arrival arrival task=6",
      "4.3881712935315083 schedule invoke scheduler (ELARE)",
      "4.6758576353322558 arrival arrival task=7",
      "4.6758576353322558 schedule invoke scheduler (ELARE)",
      "4.6791575314842087 deadline deadline task=6",
      "4.8930139387999185 arrival arrival task=8",
      "4.8930139387999185 schedule invoke scheduler (ELARE)",
      "4.997644455052817 arrival arrival task=9",
      "4.997644455052817 schedule invoke scheduler (ELARE)",
      "4.9988920481904069 arrival arrival task=10",
      "4.9988920481904069 schedule invoke scheduler (ELARE)",
      "5.0068356871789819 arrival arrival task=11",
      "5.0068356871789819 schedule invoke scheduler (ELARE)",
      "5.1892466586567814 arrival arrival task=12",
      "5.1892466586567814 schedule invoke scheduler (ELARE)",
      "5.468245654365588 arrival arrival task=13",
      "5.468245654365588 schedule invoke scheduler (ELARE)",
      "5.5196388270652337 arrival arrival task=14",
      "5.5196388270652337 schedule invoke scheduler (ELARE)",
      "5.6741270534010546 deadline deadline task=10",
      "5.6958610783562964 arrival arrival task=15"
  });
}

TEST(Integration, UmbrellaHeaderCompilesAndExposesEverything) {
  // e2c.hpp included above; touch one symbol from each major namespace.
  EXPECT_FALSE(e2c::sched::PolicyRegistry::instance().names().empty());
  EXPECT_EQ(e2c::edu::max_score(e2c::edu::default_quiz()), 12);
  EXPECT_EQ(e2c::edu::SurveyDataset::bundled().size(), 23u);
  EXPECT_EQ(e2c::hetero::builtin_machine_types().size(), 5u);
}

}  // namespace
