// Unit tests for ELARE / FELARE (sched/elare.hpp).
#include "sched/elare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "sched/registry.hpp"
#include "support/reference_mappers.hpp"
#include "support/schedule.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::sched::ElarePolicy;
using e2c::sched::FelarePolicy;
using e2c::sched::MachineView;
using e2c::test::QueuedContext;
using e2c::test::queued_task;
using e2c::test::schedule;

// Two machines: m0 is slow-but-frugal (low busy watts), m1 fast-but-hungry.
EetMatrix eet() {
  return EetMatrix({"T1", "T2"}, {"frugal", "fast"}, {{8.0, 2.0}, {10.0, 3.0}});
}

QueuedContext power_context(const std::vector<const e2c::workload::TaskDef*>& queue,
                            std::vector<double> ontime_rates = {}) {
  const static EetMatrix matrix = eet();
  std::vector<MachineView> machines(2);
  machines[0] = {0, 0, 0.0, e2c::sched::kUnlimitedSlots, 2.0, 10.0};   // frugal
  machines[1] = {1, 1, 0.0, e2c::sched::kUnlimitedSlots, 25.0, 250.0}; // fast
  return QueuedContext(matrix, queue, std::move(machines), std::move(ontime_rates));
}

/// ELARE's production mapper and its full-rescan reference: the tie cases
/// below must hold for both.
std::vector<std::unique_ptr<e2c::sched::Policy>> elare_and_reference() {
  std::vector<std::unique_ptr<e2c::sched::Policy>> mappers;
  mappers.push_back(e2c::sched::make_policy("ELARE"));
  mappers.push_back(e2c::test::make_reference_policy("ELARE"));
  return mappers;
}

TEST(Elare, NameAndMode) {
  EXPECT_EQ(ElarePolicy{}.name(), "ELARE");
  EXPECT_EQ(ElarePolicy{}.mode(), e2c::sched::PolicyMode::kBatch);
  EXPECT_EQ(FelarePolicy{}.name(), "FELARE");
}

TEST(Elare, RejectsBadWeight) {
  EXPECT_THROW(ElarePolicy{-0.1}, e2c::InputError);
  EXPECT_THROW(ElarePolicy{1.1}, e2c::InputError);
}

TEST(Elare, PureLatencyWeightMatchesMinCompletion) {
  // energy_weight = 0: ELARE reduces to completion-time minimization.
  const auto task = queued_task(1, 0, /*deadline=*/100.0);
  auto context = power_context({&task});
  ElarePolicy policy(/*energy_weight=*/0.0);
  const auto assignments = schedule(policy, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);  // fast machine: 2 < 8
}

TEST(Elare, PureEnergyWeightPicksFrugalMachine) {
  // T1: frugal 8s*10W = 80 J vs fast 2s*250W = 500 J.
  const auto task = queued_task(1, 0, /*deadline=*/100.0);
  auto context = power_context({&task});
  ElarePolicy policy(/*energy_weight=*/1.0);
  const auto assignments = schedule(policy, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 0u);
}

TEST(Elare, DefersInfeasibleTasks) {
  // Deadline 1.0: no machine completes T1 in time -> deferred (unmapped),
  // the pruning behaviour of the FELARE line of work.
  const auto task = queued_task(1, 0, /*deadline=*/1.0);
  auto context = power_context({&task});
  EXPECT_TRUE(schedule(ElarePolicy{}, context).empty());
}

TEST(Elare, SkipsInfeasibleMachineOnly) {
  // Deadline 3.0: only the fast machine (completion 2) is feasible, even at
  // full energy weight.
  const auto task = queued_task(1, 0, /*deadline=*/3.0);
  auto context = power_context({&task});
  ElarePolicy policy(/*energy_weight=*/1.0);
  const auto assignments = schedule(policy, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);
}

TEST(Elare, MapsAllFeasibleTasks) {
  const auto t1 = queued_task(1, 0, 100.0);
  const auto t2 = queued_task(2, 1, 100.0);
  const auto t3 = queued_task(3, 0, 0.5);  // infeasible
  auto context = power_context({&t1, &t2, &t3});
  const auto assignments = schedule(ElarePolicy{}, context);
  EXPECT_EQ(assignments.size(), 2u);
  for (const auto& assignment : assignments) EXPECT_NE(assignment.task, 3u);
}

TEST(Felare, SufferingTypeMapsFirst) {
  // Type 1 has a poor on-time record (0.2) vs type 0 (1.0): FELARE should
  // pull the type-1 task forward even though type 0 completes sooner.
  const auto t0 = queued_task(1, 0, 100.0);  // best completion 2 (fast)
  const auto t1 = queued_task(2, 1, 100.0);  // best completion 3 (fast)
  auto context = power_context({&t0, &t1}, /*ontime=*/{1.0, 0.2});
  const auto assignments = schedule(FelarePolicy{/*energy_weight=*/0.0}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);
}

TEST(Felare, EqualRatesBehaveLikeElare) {
  const auto t0 = queued_task(1, 0, 100.0);
  const auto t1 = queued_task(2, 1, 100.0);
  auto felare_ctx = power_context({&t0, &t1}, {1.0, 1.0});
  auto elare_ctx = power_context({&t0, &t1}, {1.0, 1.0});
  const auto felare = schedule(FelarePolicy{0.5}, felare_ctx);
  const auto elare = schedule(ElarePolicy{0.5}, elare_ctx);
  ASSERT_EQ(felare.size(), elare.size());
  for (std::size_t i = 0; i < felare.size(); ++i) {
    EXPECT_EQ(felare[i].task, elare[i].task);
    EXPECT_EQ(felare[i].machine, elare[i].machine);
  }
}

TEST(TaskIndexQueue, PerTypeListsKeepArrivalOrderAndRetriesSortLast) {
  using e2c::sched::TaskIndexQueue;
  const std::vector<e2c::workload::TaskDef> defs = {
      queued_task(10, 0), queued_task(11, 1), queued_task(12, 0), queued_task(13, 1),
      queued_task(14, 0)};
  TaskIndexQueue queue;
  queue.reset(defs, 2);
  for (std::size_t i = 0; i < defs.size(); ++i) queue.push_back(i);
  // Task 12 leaves (a fault abort) and re-enters behind everything else.
  EXPECT_TRUE(queue.erase(2));
  EXPECT_FALSE(queue.erase(2));
  EXPECT_FALSE(queue.contains(2));
  queue.push_back(2);

  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queue.count(0), 3u);
  EXPECT_EQ(queue.count(1), 2u);
  const auto walk = [&](std::size_t type) {
    std::vector<e2c::workload::TaskId> ids;
    for (std::int32_t node = queue.head(type); node != TaskIndexQueue::kNil;
         node = queue.next(node)) {
      ids.push_back(queue.def(node).id);
    }
    return ids;
  };
  EXPECT_EQ(walk(0), (std::vector<e2c::workload::TaskId>{10, 14, 12}));
  EXPECT_EQ(walk(1), (std::vector<e2c::workload::TaskId>{11, 13}));
  EXPECT_GT(queue.seq(queue.node_of(2)), queue.seq(queue.node_of(4)));

  std::vector<e2c::workload::TaskId> ordered;
  for (const auto* task : queue.ordered()) ordered.push_back(task->id);
  EXPECT_EQ(ordered, (std::vector<e2c::workload::TaskId>{10, 11, 13, 14, 12}));
}

// Drives a queue over \p type_count types through random pushes, erases and
// re-pushes, checking it against the single arrival-ordered list the index
// replaced: pushes append, erases remove from anywhere, retries append again.
void check_against_arrival_list(std::size_t type_count) {
  SCOPED_TRACE(type_count);
  constexpr std::size_t kTasks = 300;
  std::mt19937 rng(12345);
  std::vector<e2c::workload::TaskDef> defs;
  for (std::size_t i = 0; i < kTasks; ++i) defs.push_back(queued_task(i, rng() % type_count));
  e2c::sched::TaskIndexQueue queue;
  queue.reset(defs, type_count);
  std::vector<std::size_t> model;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t index = rng() % kTasks;
    const auto it = std::find(model.begin(), model.end(), index);
    if (it == model.end()) {
      queue.push_back(index);
      model.push_back(index);
    } else {
      EXPECT_TRUE(queue.erase(index));
      model.erase(it);
    }
    if (step % 97 != 0) continue;
    ASSERT_EQ(queue.ordered().size(), model.size()) << "step " << step;
    for (std::size_t k = 0; k < model.size(); ++k) {
      ASSERT_EQ(queue.ordered()[k], &defs[model[k]]) << "step " << step;
    }
    std::vector<std::size_t> counts(type_count, 0);
    for (const std::size_t i : model) ++counts[defs[i].type];
    std::vector<std::size_t> live;
    for (std::size_t t = 0; t < type_count; ++t) {
      EXPECT_EQ(queue.count(t), counts[t]);
      if (counts[t] > 0) live.push_back(t);
    }
    std::vector<std::size_t> reported(queue.live_types().begin(), queue.live_types().end());
    std::sort(reported.begin(), reported.end());
    EXPECT_EQ(reported, live);
  }
}

TEST(TaskIndexQueue, MatchesAnArrivalOrderedListUnderRandomChurn) {
  check_against_arrival_list(5);   // few lists, long ones
  check_against_arrival_list(40);  // many lists, short ones
}

TEST(TaskIndexQueue, PoolIsSizedByThePeakQueueLength) {
  // Many tasks pass through a queue that never holds more than kPeak at
  // once, some of them twice (retries): erased nodes are reused, so the
  // pool stays at the peak however long the trace is.
  constexpr std::size_t kTasks = 5000;
  constexpr std::size_t kPeak = 7;
  std::mt19937 rng(99);
  std::vector<e2c::workload::TaskDef> defs;
  for (std::size_t i = 0; i < kTasks; ++i) defs.push_back(queued_task(i, rng() % 4));
  e2c::sched::TaskIndexQueue queue;
  queue.reset(defs, 4);
  std::vector<std::size_t> model;
  for (std::size_t i = 0; i < kTasks; ++i) {
    while (model.size() >= kPeak || (!model.empty() && rng() % 3 == 0)) {
      const std::size_t at = rng() % model.size();
      const std::size_t index = model[at];
      EXPECT_TRUE(queue.erase(index));
      EXPECT_EQ(queue.node_of(index), e2c::sched::TaskIndexQueue::kNil);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
      if (rng() % 5 == 0 && model.size() < kPeak) {
        queue.push_back(index);  // a retry re-enters behind everything
        model.push_back(index);
      }
    }
    queue.push_back(i);
    model.push_back(i);
    ASSERT_LE(queue.pool_size(), kPeak) << "task " << i;
  }
  ASSERT_EQ(queue.ordered().size(), model.size());
  for (std::size_t k = 0; k < model.size(); ++k) {
    EXPECT_EQ(queue.ordered()[k], &defs[model[k]]);
  }
  queue.reset(defs, 4);
  EXPECT_EQ(queue.pool_size(), 0u);
  EXPECT_FALSE(queue.contains(model.front()));
}

TEST(TaskIndexQueue, RejectsDuplicatesAndUnknownTypes) {
  const std::vector<e2c::workload::TaskDef> defs = {queued_task(1, 0), queued_task(2, 3)};
  e2c::sched::TaskIndexQueue queue;
  queue.reset(defs, 2);
  queue.push_back(0);
  EXPECT_THROW(queue.push_back(0), e2c::InvariantError);
  EXPECT_THROW(queue.push_back(1), e2c::InvariantError);  // type 3 of 2
  EXPECT_THROW(queue.push_back(2), e2c::InvariantError);  // index out of range
}

TEST(Elare, ExactTieAcrossTypesGoesToEarliestArrival) {
  // T1 and T2 share an EET row: every (type, machine) pair ties exactly, so
  // the reference's first-minimum rule maps in arrival order whatever the
  // type, and so must the index mapper.
  const EetMatrix matrix({"T1", "T2"}, {"m0", "m1"}, {{4.0, 6.0}, {4.0, 6.0}});
  const auto first = queued_task(9, 1, 100.0);
  const auto second = queued_task(2, 0, 100.0);
  const auto third = queued_task(4, 1, 100.0);
  for (const auto& policy : elare_and_reference()) {
    auto context = e2c::test::make_context(matrix, {&first, &second, &third}, 1);
    const auto assignments = schedule(*policy, context);
    ASSERT_EQ(assignments.size(), 2u);  // two machines, one slot each
    EXPECT_EQ(assignments[0].task, 9u);
    EXPECT_EQ(assignments[1].task, 2u);
  }
}

TEST(Elare, ExactTieAcrossMachinesGoesToLowerIndex) {
  // Two machines of one type, both idle: every pair ties, so each task goes
  // to the lowest-indexed machine that still has a slot.
  const EetMatrix matrix({"T1"}, {"m0"}, {{4.0}});
  const auto first = queued_task(1, 0, 100.0);
  const auto second = queued_task(2, 0, 100.0);
  for (const auto& policy : elare_and_reference()) {
    std::vector<MachineView> machines(2);
    machines[0] = {5, 0, 0.0, 1, 10.0, 100.0};
    machines[1] = {6, 0, 0.0, 1, 10.0, 100.0};
    QueuedContext context(matrix, {&first, &second}, std::move(machines));
    const auto assignments = schedule(*policy, context);
    ASSERT_EQ(assignments.size(), 2u);
    EXPECT_EQ(assignments[0].task, 1u);
    EXPECT_EQ(assignments[0].machine, 5u);
    EXPECT_EQ(assignments[1].task, 2u);
    EXPECT_EQ(assignments[1].machine, 6u);
  }
}

TEST(Elare, PairInfeasibleForEarlierTaskSkipsToLaterOne) {
  // One type, one machine: the older task's deadline is already out of
  // reach, the newer one's is not. The walk passes the older task and maps
  // the newer; the older stays queued.
  const EetMatrix matrix({"T1"}, {"m0"}, {{5.0}});
  const auto doomed = queued_task(1, 0, 4.0);
  const auto fine = queued_task(2, 0, 50.0);
  for (const auto& policy : elare_and_reference()) {
    auto context = e2c::test::make_context(matrix, {&doomed, &fine});
    const auto assignments = schedule(*policy, context);
    ASSERT_EQ(assignments.size(), 1u);
    EXPECT_EQ(assignments[0].task, 2u);
  }
}

}  // namespace
