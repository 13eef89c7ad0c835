// Unit tests for the multi-tenant memory substrate (mem/model_cache.hpp)
// and its simulation integration (cold-start penalties, Edge-MultiAI [22]).
#include "mem/model_cache.hpp"

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/error.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::mem::EvictionPolicy;
using e2c::mem::MemoryModel;
using e2c::mem::ModelCache;
using e2c::workload::TaskDef;
using e2c::workload::Workload;

// Three models of 4 MB each with 2 s load penalty; 8 MB capacity holds two.
ModelCache two_slot_cache(EvictionPolicy eviction = EvictionPolicy::kLru) {
  return ModelCache(8.0, {4.0, 4.0, 4.0}, {2.0, 2.0, 2.0}, eviction);
}

TEST(ModelCache, ColdThenWarm) {
  ModelCache cache = two_slot_cache();
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 2.0);  // cold
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 0.0);  // warm
  EXPECT_TRUE(cache.is_warm(0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(cache.used_mb(), 4.0);
}

TEST(ModelCache, EvictsWhenFull) {
  ModelCache cache = two_slot_cache();
  (void)cache.on_execute(0);
  (void)cache.on_execute(1);
  EXPECT_DOUBLE_EQ(cache.used_mb(), 8.0);
  (void)cache.on_execute(2);  // evicts type 0 (oldest)
  EXPECT_FALSE(cache.is_warm(0));
  EXPECT_TRUE(cache.is_warm(1));
  EXPECT_TRUE(cache.is_warm(2));
}

TEST(ModelCache, LruKeepsRecentlyUsed) {
  ModelCache cache = two_slot_cache(EvictionPolicy::kLru);
  (void)cache.on_execute(0);
  (void)cache.on_execute(1);
  (void)cache.on_execute(0);  // touch: 0 becomes most recent
  (void)cache.on_execute(2);  // must evict 1, not 0
  EXPECT_TRUE(cache.is_warm(0));
  EXPECT_FALSE(cache.is_warm(1));
}

TEST(ModelCache, FifoIgnoresRecency) {
  ModelCache cache = two_slot_cache(EvictionPolicy::kFifo);
  (void)cache.on_execute(0);
  (void)cache.on_execute(1);
  (void)cache.on_execute(0);  // hit, but FIFO order unchanged
  (void)cache.on_execute(2);  // evicts 0 (oldest load)
  EXPECT_FALSE(cache.is_warm(0));
  EXPECT_TRUE(cache.is_warm(1));
}

TEST(ModelCache, NonePolicyAlwaysCold) {
  ModelCache cache = two_slot_cache(EvictionPolicy::kNone);
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 2.0);
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 2.0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.is_warm(0));
}

TEST(ModelCache, OversizedModelNeverCached) {
  ModelCache cache(3.0, {4.0}, {1.5}, EvictionPolicy::kLru);
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 1.5);
  EXPECT_DOUBLE_EQ(cache.on_execute(0), 1.5);  // still cold; does not fit
  EXPECT_FALSE(cache.is_warm(0));
  EXPECT_DOUBLE_EQ(cache.used_mb(), 0.0);
}

TEST(ModelCache, WarmTypesInEvictionOrder) {
  ModelCache cache = two_slot_cache();
  (void)cache.on_execute(1);
  (void)cache.on_execute(2);
  EXPECT_EQ(cache.warm_types(),
            (std::vector<e2c::hetero::TaskTypeId>{1, 2}));  // 1 is the next victim
}

TEST(ModelCache, Validation) {
  EXPECT_THROW(ModelCache(0.0, {1.0}, {0.0}, EvictionPolicy::kLru), e2c::InputError);
  EXPECT_THROW(ModelCache(8.0, {0.0}, {0.0}, EvictionPolicy::kLru), e2c::InputError);
  EXPECT_THROW(ModelCache(8.0, {1.0}, {-1.0}, EvictionPolicy::kLru), e2c::InputError);
  EXPECT_THROW(ModelCache(8.0, {1.0, 2.0}, {0.0}, EvictionPolicy::kLru), e2c::InputError);
  ModelCache cache = two_slot_cache();
  EXPECT_THROW((void)cache.on_execute(9), e2c::InputError);
}

TEST(ModelCache, ParsePolicyNames) {
  EXPECT_EQ(e2c::mem::parse_eviction_policy("LRU"), EvictionPolicy::kLru);
  EXPECT_EQ(e2c::mem::parse_eviction_policy("fifo"), EvictionPolicy::kFifo);
  EXPECT_THROW((void)e2c::mem::parse_eviction_policy("random"), e2c::InputError);
}

// --- simulation integration ------------------------------------------------

e2c::sched::SystemConfig memory_system(double capacity_mb) {
  EetMatrix eet({"T1", "T2"}, {"m0"}, {{3.0}, {4.0}});
  auto config = e2c::sched::make_default_system(std::move(eet));
  MemoryModel memory;
  memory.model_mb = {4.0, 4.0};
  memory.load_seconds = {2.0, 2.0};
  memory.machine_memory_mb = {capacity_mb};
  config.memory = memory;
  return config;
}

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = 1e9;
  return task;
}

TEST(MemorySimulation, ColdStartExtendsExecution) {
  auto config = memory_system(16.0);  // both models fit
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("FCFS"));
  simulation.load(Workload({make_task(0, 0, 0.0), make_task(1, 0, 0.0)}));
  simulation.run();
  // First T1: cold 3+2=5 s; second T1: warm 3 s -> completes at 8.
  EXPECT_DOUBLE_EQ(simulation.task_state().completion_time(0), 5.0);
  EXPECT_DOUBLE_EQ(simulation.task_state().completion_time(1), 8.0);
  ASSERT_NE(simulation.model_cache(0), nullptr);
  EXPECT_EQ(simulation.model_cache(0)->hits(), 1u);
}

TEST(MemorySimulation, ThrashingWhenMemoryTight) {
  // 4 MB capacity holds one model; alternating types thrash: every start
  // cold. Interleaved T1/T2 arrivals.
  auto config = memory_system(4.0);
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("FCFS"));
  std::vector<TaskDef> tasks;
  for (std::uint64_t i = 0; i < 6; ++i) tasks.push_back(make_task(i, i % 2, 0.0));
  simulation.load(Workload(std::move(tasks)));
  simulation.run();
  ASSERT_NE(simulation.model_cache(0), nullptr);
  EXPECT_EQ(simulation.model_cache(0)->hits(), 0u);
  EXPECT_EQ(simulation.model_cache(0)->misses(), 6u);
}

TEST(MemorySimulation, NoMemoryModelMeansNoCache) {
  EetMatrix eet({"T1"}, {"m0"}, {{3.0}});
  auto config = e2c::sched::make_default_system(std::move(eet));
  e2c::sched::Simulation simulation(config, e2c::sched::make_policy("FCFS"));
  EXPECT_EQ(simulation.model_cache(0), nullptr);
}

TEST(MemorySimulation, ShapeValidated) {
  auto config = memory_system(8.0);
  config.memory->model_mb = {4.0};  // wrong: 2 task types
  EXPECT_THROW(e2c::sched::Simulation(config, e2c::sched::make_policy("FCFS")),
               e2c::InputError);
  config = memory_system(8.0);
  config.memory->machine_memory_mb = {};  // wrong: 1 machine type
  EXPECT_THROW(e2c::sched::Simulation(config, e2c::sched::make_policy("FCFS")),
               e2c::InputError);
}

TEST(MemorySimulation, LargerMemoryNeverHurtsCompletion) {
  // Tight deadlines; sweep capacity upward: completion is non-decreasing
  // (within one task of noise) because cold starts only shrink.
  auto completion_with = [&](double capacity) {
    auto config = memory_system(capacity);
    e2c::sched::Simulation simulation(config, e2c::sched::make_policy("FCFS"));
    std::vector<TaskDef> tasks;
    for (std::uint64_t i = 0; i < 12; ++i) {
      TaskDef task = make_task(i, i % 2, static_cast<double>(i) * 2.0);
      task.deadline = task.arrival + 9.0;
      tasks.push_back(task);
    }
    simulation.load(Workload(std::move(tasks)));
    simulation.run();
    return simulation.counters().completion_percent();
  };
  EXPECT_LE(completion_with(4.0), completion_with(8.0) + 1e-9);
}

}  // namespace
