// Differential fuzz: the incremental (fast) batch mappers must emit exactly
// the assignment sequence of their full-rescan reference oracles, on randomized
// scheduling contexts. Values are often drawn from small discrete sets so
// exact floating-point ties occur frequently — the tie-break rules (earlier
// arrival, lower machine index) are where incremental mappers usually drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "hetero/eet_matrix.hpp"
#include "hetero/pet_matrix.hpp"
#include "sched/elare.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "sched/task_index_queue.hpp"
#include "support/owned_queue.hpp"
#include "support/reference_mappers.hpp"
#include "support/schedule.hpp"
#include "workload/task.hpp"

namespace {

using e2c::sched::Assignment;
using e2c::sched::MachineView;
using e2c::sched::SchedulingContext;
using e2c::sched::TaskIndexQueue;
using e2c::test::schedule;

struct FuzzScenario {
  e2c::hetero::EetMatrix eet;
  std::vector<MachineView> machines;
  std::vector<e2c::workload::TaskDef> tasks;
  std::vector<double> ontime_rates;
  std::optional<e2c::hetero::PetMatrix> pet;

  /// A context over \p index, which must hold this scenario's tasks.
  [[nodiscard]] SchedulingContext make_context(const TaskIndexQueue& index) const {
    return SchedulingContext(0.0, eet, machines, index, ontime_rates, pet ? &*pet : nullptr);
  }
};

/// Appends 1 to 8 machine views of random types, ready times and slot counts.
void add_machines(FuzzScenario& scenario, std::size_t machine_types, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> machine_count_dist(1, 8);
  std::uniform_int_distribution<int> coin(0, 1);
  const std::size_t machine_count = machine_count_dist(rng);
  std::uniform_int_distribution<std::size_t> pick_machine_type(0, machine_types - 1);
  std::uniform_int_distribution<int> ready_int(0, 12);
  std::uniform_int_distribution<int> slot_kind(0, 9);
  std::uniform_real_distribution<double> busy_watts(50.0, 200.0);
  for (std::size_t j = 0; j < machine_count; ++j) {
    MachineView view;
    view.id = j;
    view.type = pick_machine_type(rng);
    view.ready_time = static_cast<double>(ready_int(rng));
    // Slot mix: mostly small bounded queues, some exhausted, some unbounded.
    const int kind = slot_kind(rng);
    if (kind == 0) view.free_slots = 0;
    else if (kind <= 2) view.free_slots = e2c::sched::kUnlimitedSlots;
    else view.free_slots = static_cast<std::size_t>(1 + kind % 4);
    view.idle_watts = 10.0;
    view.busy_watts = coin(rng) == 1 ? 100.0 : busy_watts(rng);
    scenario.machines.push_back(view);
  }
}

FuzzScenario random_scenario(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> type_count_dist(1, 6);
  std::uniform_int_distribution<std::size_t> machine_type_dist(1, 4);
  std::uniform_int_distribution<std::size_t> task_count_dist(0, 40);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> percent(0, 99);

  const std::size_t task_types = type_count_dist(rng);
  const std::size_t machine_types = machine_type_dist(rng);

  // Half the time EET cells come from a tiny discrete set so distinct
  // (task, machine) pairs collide to bit-equal completions and scores.
  const bool discrete = coin(rng) == 1;
  std::uniform_real_distribution<double> continuous_eet(0.5, 20.0);
  std::uniform_int_distribution<int> discrete_eet(1, 4);
  std::vector<std::vector<double>> cells(task_types, std::vector<double>(machine_types));
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  for (std::size_t t = 0; t < task_types; ++t) {
    task_names.push_back("t" + std::to_string(t));
    for (std::size_t m = 0; m < machine_types; ++m) {
      cells[t][m] = discrete ? static_cast<double>(discrete_eet(rng)) : continuous_eet(rng);
    }
  }
  for (std::size_t m = 0; m < machine_types; ++m) {
    machine_names.push_back("m" + std::to_string(m));
  }

  FuzzScenario scenario{e2c::hetero::EetMatrix(task_names, machine_names, cells),
                        {},
                        {},
                        {},
                        std::nullopt};

  add_machines(scenario, machine_types, rng);

  const std::size_t task_count = task_count_dist(rng);
  std::uniform_int_distribution<std::size_t> pick_task_type(0, task_types - 1);
  std::uniform_int_distribution<int> tight_deadline(1, 25);
  for (std::size_t i = 0; i < task_count; ++i) {
    e2c::workload::TaskDef task;
    task.id = i + 1;
    task.type = static_cast<std::uint32_t>(pick_task_type(rng));
    task.arrival = static_cast<double>(i);
    // ~40% tight (often infeasible -> deferral paths), rest effectively open.
    task.deadline = percent(rng) < 40 ? static_cast<double>(tight_deadline(rng)) : 1e9;
    scenario.tasks.push_back(task);
  }

  std::uniform_real_distribution<double> rate(0.0, 1.0);
  for (std::size_t t = 0; t < task_types; ++t) {
    scenario.ontime_rates.push_back(coin(rng) == 1 ? 1.0 : rate(rng));
  }

  if (percent(rng) < 20) {
    scenario.pet = e2c::hetero::PetMatrix::homoscedastic(
        scenario.eet, e2c::hetero::PetKind::kNormal, 0.3);
  }
  return scenario;
}

/// A large catalog queried sparsely, the shape of the sweep workload: 64 to
/// 1024 task types on 1 to 4 machine types. EETs come from {1, 2, 3, 4}, so
/// pairs of different types and machines score exactly alike.
e2c::hetero::EetMatrix random_catalog(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> type_count_dist(64, 1024);
  std::uniform_int_distribution<std::size_t> machine_type_dist(1, 4);
  std::uniform_int_distribution<int> discrete_eet(1, 4);
  const std::size_t task_types = type_count_dist(rng);
  const std::size_t machine_types = machine_type_dist(rng);
  std::vector<std::vector<double>> cells(task_types, std::vector<double>(machine_types));
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  for (std::size_t t = 0; t < task_types; ++t) {
    task_names.push_back("t" + std::to_string(t));
    for (double& cell : cells[t]) cell = static_cast<double>(discrete_eet(rng));
  }
  for (std::size_t m = 0; m < machine_types; ++m) {
    machine_names.push_back("m" + std::to_string(m));
  }
  return e2c::hetero::EetMatrix(task_names, machine_names, cells);
}

/// One scheduling round over \p catalog: fresh machine views and a queue of
/// at most 40 tasks drawn from 1 to 5 of its types, ~80% of them with tight
/// (often infeasible) deadlines.
FuzzScenario sparse_round(const e2c::hetero::EetMatrix& catalog, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> hot_count_dist(1, 5);
  std::uniform_int_distribution<std::size_t> task_count_dist(0, 40);
  std::uniform_int_distribution<e2c::hetero::TaskTypeId> catalog_type(
      0, catalog.task_type_count() - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> tight_deadline(1, 25);
  std::uniform_real_distribution<double> rate(0.0, 1.0);

  FuzzScenario scenario{catalog, {}, {}, {}, std::nullopt};
  add_machines(scenario, catalog.machine_type_count(), rng);

  std::vector<e2c::hetero::TaskTypeId> hot(hot_count_dist(rng));
  for (auto& type : hot) type = catalog_type(rng);
  scenario.ontime_rates.assign(catalog.task_type_count(), 1.0);
  for (const auto type : hot) {
    if (coin(rng) == 1) scenario.ontime_rates[type] = rate(rng);
  }
  std::uniform_int_distribution<std::size_t> pick_hot(0, hot.size() - 1);
  const std::size_t task_count = task_count_dist(rng);
  for (std::size_t i = 0; i < task_count; ++i) {
    e2c::workload::TaskDef task;
    task.id = i + 1;
    task.type = static_cast<std::uint32_t>(hot[pick_hot(rng)]);
    task.arrival = static_cast<double>(i);
    task.deadline = percent(rng) < 80 ? static_cast<double>(tight_deadline(rng)) : 1e9;
    scenario.tasks.push_back(task);
  }
  return scenario;
}

/// Binds \p index to the scenario's tasks the way a simulation fills it:
/// tasks enter in a shuffled order and some leave and re-enter at the tail
/// (fault retries), so queue order is not task-index order.
void fill_index(const FuzzScenario& scenario, TaskIndexQueue& index, std::mt19937_64& rng) {
  index.reset(scenario.tasks, scenario.eet.task_type_count());
  std::vector<std::size_t> order(scenario.tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (const std::size_t i : order) index.push_back(i);
  std::uniform_int_distribution<int> percent(0, 99);
  for (const std::size_t i : order) {
    if (percent(rng) < 20) {
      index.erase(i);
      index.push_back(i);
    }
  }
}

/// Runs both mappers on contexts over \p index (the simulation's path: tasks
/// filled in by fill_index), or without one over the task vector in order.
void expect_same_decisions(const FuzzScenario& scenario, e2c::sched::Policy& fast,
                           e2c::sched::Policy& reference, std::size_t trial,
                           const TaskIndexQueue* index = nullptr) {
  std::optional<e2c::test::OwnedQueue> owned;
  if (index == nullptr) index = &owned.emplace(scenario.eet, scenario.tasks).index();
  SchedulingContext fast_context = scenario.make_context(*index);
  SchedulingContext reference_context = scenario.make_context(*index);
  const std::vector<Assignment> got = schedule(fast, fast_context);
  const std::vector<Assignment> want = schedule(reference, reference_context);
  ASSERT_EQ(got.size(), want.size())
      << fast.name() << " trial " << trial << ": assignment counts diverge";
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(got[k].task, want[k].task)
        << fast.name() << " trial " << trial << " step " << k;
    ASSERT_EQ(got[k].machine, want[k].machine)
        << fast.name() << " trial " << trial << " step " << k;
  }
}

// One fast/reference pair per mapper, constructed once so the fast path's
// scratch buffers are reused across all trials (as they are in a real run).
struct MapperPair {
  std::unique_ptr<e2c::sched::Policy> fast;
  std::unique_ptr<e2c::sched::Policy> reference;
};

/// The registry's mapper \p name and its reference.
MapperPair builtin_pair(const std::string& name) {
  return {e2c::sched::make_policy(name), e2c::test::make_reference_policy(name)};
}

/// An ELARE variant at \p weight (or a subclass of it) and the reference
/// that scores through the same hooks.
template <typename Elare>
MapperPair elare_pair(double weight) {
  return {std::make_unique<Elare>(weight),
          e2c::test::make_reference_elare(std::make_unique<Elare>(weight))};
}

/// A student-style ELARE subclass: the fairness hook returns a constant per
/// task type (types 0 and 3 share one, so cross-type score ties remain).
class TypeConstantElare final : public e2c::sched::ElarePolicy {
 public:
  using ElarePolicy::ElarePolicy;
  [[nodiscard]] std::string name() const override { return "ELARE-type-constant"; }
  [[nodiscard]] double fairness_factor(const SchedulingContext&,
                                       e2c::hetero::TaskTypeId type) const override {
    return 0.25 + 0.5 * static_cast<double>(type % 3);
  }
};

TEST(SchedEquivalenceFuzz, IterativeBatchMappersMatchReference) {
  std::vector<MapperPair> pairs;
  for (const char* name : {"MM", "MMU", "MSD"}) pairs.push_back(builtin_pair(name));

  std::mt19937_64 rng(0xE2CF0221ULL);
  constexpr std::size_t kTrials = 1200;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const FuzzScenario scenario = random_scenario(rng);
    for (MapperPair& pair : pairs) {
      expect_same_decisions(scenario, *pair.fast, *pair.reference, trial);
    }
  }
}

TEST(SchedEquivalenceFuzz, ElareMappersMatchReference) {
  std::vector<MapperPair> pairs;
  for (const double weight : {0.0, 0.35, 0.5, 1.0}) {
    pairs.push_back(elare_pair<e2c::sched::ElarePolicy>(weight));
    pairs.push_back(elare_pair<e2c::sched::FelarePolicy>(weight));
  }
  // A user-overridden hook must hold against the oracle too (the per-type
  // contract of Policy in policy.hpp).
  MapperPair typed = elare_pair<TypeConstantElare>(0.5);

  std::mt19937_64 rng(0xE2CF0222ULL);
  constexpr std::size_t kTrials = 1200;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const FuzzScenario scenario = random_scenario(rng);
    // Rotate the weight pairs so scratch reuse still sees every trial shape;
    // each (policy, weight) pair sees kTrials / 4 contexts, and each of
    // ELARE/FELARE sees all kTrials.
    MapperPair& elare = pairs[2 * (trial % 4)];
    MapperPair& felare = pairs[2 * (trial % 4) + 1];
    expect_same_decisions(scenario, *elare.fast, *elare.reference, trial);
    expect_same_decisions(scenario, *felare.fast, *felare.reference, trial);
    expect_same_decisions(scenario, *typed.fast, *typed.reference, trial);
  }
}

// The sweep shape: a large catalog of which a shallow queue touches a few
// types. One fast instance per mapper serves every round of every catalog,
// so the per-type scratch an earlier invocation wrote (for types that are
// not queued now, or under a catalog of another size) is still there when
// the next one runs. Every other round runs over a live TaskIndexQueue, as
// in a simulation.
TEST(SchedEquivalenceFuzz, SparseLargeCatalogsMatchReference) {
  std::vector<MapperPair> pairs;
  for (const char* name : {"MM", "MMU", "MSD"}) pairs.push_back(builtin_pair(name));
  for (const double weight : {0.0, 0.5, 1.0}) {
    pairs.push_back(elare_pair<e2c::sched::ElarePolicy>(weight));
    pairs.push_back(elare_pair<e2c::sched::FelarePolicy>(weight));
  }

  std::mt19937_64 rng(0xE2CF0224ULL);
  TaskIndexQueue index;
  constexpr std::size_t kCatalogs = 40;
  constexpr std::size_t kRounds = 10;
  for (std::size_t c = 0; c < kCatalogs; ++c) {
    const e2c::hetero::EetMatrix catalog = random_catalog(rng);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t trial = c * kRounds + round;
      const FuzzScenario scenario = sparse_round(catalog, rng);
      const bool indexed = round % 2 == 1;
      if (indexed) fill_index(scenario, index, rng);
      for (MapperPair& pair : pairs) {
        expect_same_decisions(scenario, *pair.fast, *pair.reference, trial,
                              indexed ? &index : nullptr);
      }
    }
  }
}

// Degenerate shapes the random generator hits only rarely, pinned explicitly.
TEST(SchedEquivalenceFuzz, DegenerateShapes) {
  std::mt19937_64 rng(0xE2CF0223ULL);
  for (std::size_t trial = 0; trial < 64; ++trial) {
    FuzzScenario scenario = random_scenario(rng);
    switch (trial % 4) {
      case 0:  // empty queue
        scenario.tasks.clear();
        break;
      case 1:  // every machine exhausted
        for (MachineView& m : scenario.machines) m.free_slots = 0;
        break;
      case 2:  // every task already doomed
        for (auto& task : scenario.tasks) task.deadline = -1.0;
        break;
      case 3:  // single machine, single slot
        scenario.machines.resize(1);
        scenario.machines[0].free_slots = 1;
        break;
    }
    const MapperPair mm = builtin_pair("MM");
    expect_same_decisions(scenario, *mm.fast, *mm.reference, trial);
    const MapperPair felare = builtin_pair("FELARE");
    expect_same_decisions(scenario, *felare.fast, *felare.reference, trial);
  }
}

}  // namespace
