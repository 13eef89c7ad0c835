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

TEST(Integration, UmbrellaHeaderCompilesAndExposesEverything) {
  // e2c.hpp included above; touch one symbol from each major namespace.
  EXPECT_FALSE(e2c::sched::PolicyRegistry::instance().names().empty());
  EXPECT_EQ(e2c::edu::max_score(e2c::edu::default_quiz()), 12);
  EXPECT_EQ(e2c::edu::SurveyDataset::bundled().size(), 23u);
  EXPECT_EQ(e2c::hetero::builtin_machine_types().size(), 5u);
}

}  // namespace
