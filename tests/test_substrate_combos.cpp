// Property tests across SUBSTRATE COMBINATIONS: the lifecycle/accounting
// invariants must hold when stochastic execution (PET), the communication
// model, the autoscaler and the memory model are enabled in any mix, for
// both an immediate and a batch policy.
#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "hetero/pet_matrix.hpp"
#include "mem/model_cache.hpp"
#include "net/comm_model.hpp"
#include "reports/metrics.hpp"
#include "sched/registry.hpp"
#include "support/event_trace.hpp"
#include "workload/generator.hpp"

namespace {

using e2c::sched::Simulation;
using e2c::workload::TaskDef;
using e2c::workload::TaskStatus;

struct ComboCase {
  bool pet = false;
  bool comm = false;
  bool autoscale = false;
  bool memory = false;
  std::string policy = "MM";
};

std::vector<ComboCase> all_combos() {
  std::vector<ComboCase> cases;
  for (const std::string policy : {"MECT", "MM"}) {
    for (int mask = 0; mask < 16; ++mask) {
      ComboCase c;
      c.pet = (mask & 1) != 0;
      c.comm = (mask & 2) != 0;
      c.autoscale = (mask & 4) != 0;
      c.memory = (mask & 8) != 0;
      c.policy = policy;
      cases.push_back(c);
    }
  }
  return cases;
}

std::string combo_name(const testing::TestParamInfo<ComboCase>& info) {
  const ComboCase& c = info.param;
  std::string name = c.policy;
  name += c.pet ? "_pet" : "";
  name += c.comm ? "_comm" : "";
  name += c.autoscale ? "_scale" : "";
  name += c.memory ? "_mem" : "";
  return name.empty() ? "plain" : name;
}

class SubstrateComboTest : public testing::TestWithParam<ComboCase> {
 protected:
  void run_case(std::uint64_t seed = 77) {
    const ComboCase& combo = GetParam();
    system_ = e2c::exp::heterogeneous_classroom(2);
    if (combo.pet) {
      system_.pet = e2c::hetero::PetMatrix::homoscedastic(
          system_.eet, e2c::hetero::PetKind::kLognormal, 0.3);
    }
    if (combo.comm) {
      system_.comm = e2c::net::CommModel::uniform(
          system_.eet.task_type_count(), system_.eet.machine_type_count(), 5.0,
          e2c::net::LinkSpec{0.01, 20.0});
    }
    if (combo.autoscale) {
      system_.autoscaler.enabled = true;
      system_.autoscaler.interval = 1.5;
      system_.autoscaler.queue_high = 3;
      system_.autoscaler.queue_low = 0;
      system_.autoscaler.boot_delay = 1.0;
      system_.autoscaler.min_online = 1;
      system_.autoscaler.initially_offline = {2, 3};
    }
    if (combo.memory) {
      e2c::mem::MemoryModel memory;
      memory.model_mb.assign(system_.eet.task_type_count(), 2.0);
      memory.load_seconds.assign(system_.eet.task_type_count(), 1.0);
      memory.machine_memory_mb.assign(system_.eet.machine_type_count(), 4.0);
      system_.memory = memory;
    }

    const auto machine_types = e2c::exp::machine_types_of(system_);
    const auto generator = e2c::workload::config_for_intensity(
        system_.eet, machine_types, e2c::workload::Intensity::kMedium, 60.0, seed);
    workload_ = e2c::workload::generate_workload(system_.eet, generator);

    simulation_ = std::make_unique<Simulation>(system_,
                                               e2c::sched::make_policy(GetParam().policy));
    simulation_->load(workload_);
    trace_.clear();
    trace_.record(simulation_->engine());
  }

  e2c::sched::SystemConfig system_;
  e2c::workload::Workload workload_;
  std::unique_ptr<Simulation> simulation_;
  e2c::test::EventTrace trace_;
};

TEST_P(SubstrateComboTest, RunTerminatesWithEveryTaskTerminal) {
  run_case();
  EXPECT_TRUE(simulation_->finished());
  const auto& counters = simulation_->counters();
  EXPECT_EQ(counters.completed + counters.cancelled + counters.dropped, counters.total);
  EXPECT_GT(counters.total, 0u);
}

TEST_P(SubstrateComboTest, NoReservationLeaks) {
  run_case();
  for (std::size_t m = 0; m < simulation_->machine_count(); ++m) {
    EXPECT_EQ(simulation_->in_flight_count(m), 0u) << "machine " << m;
    EXPECT_FALSE(simulation_->machine(m).busy()) << "machine " << m;
    EXPECT_EQ(simulation_->machine(m).queue_length(), 0u) << "machine " << m;
  }
  EXPECT_TRUE(simulation_->batch_queue_ids().empty());
}

TEST_P(SubstrateComboTest, RecordsConsistentUnderAllSubstrates) {
  run_case();
  const auto& state = simulation_->task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    switch (state.status[i]) {
      case TaskStatus::kCompleted:
        EXPECT_LE(state.completion_time(i), state.deadline(i) + 1e-9);
        EXPECT_GE(state.start_time[i], state.arrival(i) - 1e-9);
        break;
      case TaskStatus::kCancelled:
        EXPECT_EQ(state.machine[i], e2c::workload::kNoMachine);
        break;
      case TaskStatus::kDropped:
        EXPECT_NE(state.machine[i], e2c::workload::kNoMachine);
        EXPECT_NEAR(state.missed_time(i), state.deadline(i), 1e-9);
        break;
      default:
        FAIL() << "non-terminal status after run";
    }
  }
}

TEST_P(SubstrateComboTest, EventOrderingMonotonic) {
  run_case();
  EXPECT_TRUE(trace_.is_monotonic());
}

TEST_P(SubstrateComboTest, EnergyNonNegativeAndBounded) {
  run_case();
  const double horizon = simulation_->engine().now();
  const double total = simulation_->total_energy_joules(horizon);
  const double dynamic = simulation_->total_dynamic_energy_joules(horizon);
  EXPECT_GE(total, 0.0);
  EXPECT_GE(dynamic, 0.0);
  EXPECT_LE(dynamic, total + 1e-6);  // idle draw can only add
  double ceiling = 0.0;
  for (const auto& machine : system_.machines) {
    ceiling += machine.power.busy_watts * horizon;
  }
  EXPECT_LE(total, ceiling + 1e-6);
}

TEST_P(SubstrateComboTest, DeterministicReplayWithAllSubstrates) {
  run_case(99);
  const auto first = simulation_->counters();
  const double first_energy = simulation_->total_energy_joules();
  run_case(99);
  EXPECT_EQ(simulation_->counters().completed, first.completed);
  EXPECT_EQ(simulation_->counters().cancelled, first.cancelled);
  EXPECT_EQ(simulation_->counters().dropped, first.dropped);
  EXPECT_DOUBLE_EQ(simulation_->total_energy_joules(), first_energy);
}

TEST_P(SubstrateComboTest, MetricsPipelineHandlesEveryCombo) {
  run_case();
  const auto metrics = e2c::reports::compute_metrics(*simulation_);
  EXPECT_NEAR(metrics.completion_percent + metrics.cancelled_percent +
                  metrics.dropped_percent,
              100.0, 1e-9);
  const e2c::core::SimTime horizon = simulation_->engine().now();
  for (std::size_t m = 0; m < simulation_->machine_count(); ++m) {
    const double utilization = simulation_->machine(m).finalize_stats(horizon).utilization();
    EXPECT_GE(utilization, 0.0);
    EXPECT_LE(utilization, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrateCombos, SubstrateComboTest,
                         testing::ValuesIn(all_combos()), combo_name);

}  // namespace
