// Unit tests for the batch policies MM / MMU / MSD (sched/batch.hpp).
#include "sched/batch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "support/schedule.hpp"
#include "test_helpers.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::sched::MaxUrgencyPolicy;
using e2c::sched::MinMinPolicy;
using e2c::sched::PolicyMode;
using e2c::sched::SoonestDeadlinePolicy;
using e2c::test::make_context;
using e2c::test::queued_task;
using e2c::test::schedule;

// 3 task types x 2 machines.
EetMatrix eet() {
  return EetMatrix({"T1", "T2", "T3"}, {"m0", "m1"},
                   {{2.0, 8.0}, {6.0, 3.0}, {4.0, 4.0}});
}

TEST(BatchPolicies, ModesAndNames) {
  EXPECT_EQ(MinMinPolicy{}.mode(), PolicyMode::kBatch);
  EXPECT_EQ(MaxUrgencyPolicy{}.mode(), PolicyMode::kBatch);
  EXPECT_EQ(SoonestDeadlinePolicy{}.mode(), PolicyMode::kBatch);
  EXPECT_EQ(MinMinPolicy{}.name(), "MM");
  EXPECT_EQ(MaxUrgencyPolicy{}.name(), "MMU");
  EXPECT_EQ(SoonestDeadlinePolicy{}.name(), "MSD");
}

TEST(MinMin, ShortestCompletionMapsFirst) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 1);  // best 3 on m1
  const auto t2 = queued_task(2, 0);  // best 2 on m0 -> picked first
  auto context = make_context(matrix, {&t1, &t2});
  const auto assignments = schedule(MinMinPolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);
  EXPECT_EQ(assignments[0].machine, 0u);
  EXPECT_EQ(assignments[1].task, 1u);
  EXPECT_EQ(assignments[1].machine, 1u);
}

TEST(MinMin, ProjectionAffectsLaterRounds) {
  // Two T1 tasks (best m0 at 2): the second sees m0 busy until 2 and
  // compares m0 at 4 vs m1 at 8 -> still m0.
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 0);
  auto context = make_context(matrix, {&t1, &t2});
  const auto assignments = schedule(MinMinPolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].machine, 0u);
  EXPECT_EQ(assignments[1].machine, 0u);
}

TEST(MaxUrgency, SmallestSlackMapsFirst) {
  const EetMatrix matrix = eet();
  // t1: best completion 3 (m1), deadline 20 -> slack 17.
  // t2: best completion 2 (m0), deadline 4  -> slack 2 (urgent).
  const auto t1 = queued_task(1, 1, /*deadline=*/20.0);
  const auto t2 = queued_task(2, 0, /*deadline=*/4.0);
  auto context = make_context(matrix, {&t1, &t2});
  const auto assignments = schedule(MaxUrgencyPolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);
}

TEST(MaxUrgency, UrgencyBeatsCompletionOrder) {
  const EetMatrix matrix = eet();
  // t1 completes sooner (2 < 3) but t2 is far more urgent.
  const auto t1 = queued_task(1, 0, /*deadline=*/100.0);
  const auto t2 = queued_task(2, 1, /*deadline=*/3.5);
  auto context = make_context(matrix, {&t1, &t2});
  const auto assignments = schedule(MaxUrgencyPolicy{}, context);
  EXPECT_EQ(assignments[0].task, 2u);
}

TEST(SoonestDeadline, EdfOrdering) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0, /*deadline=*/50.0);
  const auto t2 = queued_task(2, 1, /*deadline=*/10.0);
  const auto t3 = queued_task(3, 2, /*deadline=*/30.0);
  auto context = make_context(matrix, {&t1, &t2, &t3});
  const auto assignments = schedule(SoonestDeadlinePolicy{}, context);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].task, 2u);
  EXPECT_EQ(assignments[1].task, 3u);
  EXPECT_EQ(assignments[2].task, 1u);
}

TEST(SoonestDeadline, MachineIsCompletionMinimizer) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 1, /*deadline=*/5.0);  // T2: m1 (3) beats m0 (6)
  auto context = make_context(matrix, {&t1});
  const auto assignments = schedule(SoonestDeadlinePolicy{}, context);
  EXPECT_EQ(assignments[0].machine, 1u);
}

TEST(BatchPolicies, InfeasibleTasksAreDeferredNotMapped) {
  // Best completion of T1 is 2 (m0); a deadline of 1.0 is unmeetable, so the
  // pruning rule defers the task instead of wasting machine time on it.
  const EetMatrix matrix = eet();
  const auto doomed = queued_task(1, 0, /*deadline=*/1.0);
  const auto viable = queued_task(2, 1, /*deadline=*/50.0);
  for (auto mode : {0, 1, 2}) {
    auto context = make_context(matrix, {&doomed, &viable});
    std::vector<e2c::sched::Assignment> assignments;
    if (mode == 0) assignments = schedule(MinMinPolicy{}, context);
    if (mode == 1) assignments = schedule(MaxUrgencyPolicy{}, context);
    if (mode == 2) assignments = schedule(SoonestDeadlinePolicy{}, context);
    ASSERT_EQ(assignments.size(), 1u) << "mode " << mode;
    EXPECT_EQ(assignments[0].task, 2u) << "mode " << mode;
  }
}

TEST(MaxUrgency, DoomedTasksDoNotStarveFeasibleOnes) {
  // Without pruning, the doomed task's hugely negative slack would make it
  // the "most urgent" pick every round.
  const EetMatrix matrix = eet();
  const auto doomed = queued_task(1, 0, /*deadline=*/0.5);
  const auto t2 = queued_task(2, 1, /*deadline=*/4.0);
  const auto t3 = queued_task(3, 2, /*deadline=*/30.0);
  auto context = make_context(matrix, {&doomed, &t2, &t3});
  const auto assignments = schedule(MaxUrgencyPolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);  // tight but feasible goes first
  EXPECT_EQ(assignments[1].task, 3u);
}

TEST(BatchPolicies, RespectSlotLimits) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 0);
  const auto t3 = queued_task(3, 0);
  // One slot per machine: only two of three tasks can be mapped.
  auto context = make_context(matrix, {&t1, &t2, &t3}, /*free_slots=*/1);
  const auto assignments = schedule(MinMinPolicy{}, context);
  EXPECT_EQ(assignments.size(), 2u);
}

TEST(BatchPolicies, SaturatedSystemMapsNothing) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  auto context = make_context(matrix, {&t1}, /*free_slots=*/0);
  EXPECT_TRUE(schedule(MinMinPolicy{}, context).empty());
  EXPECT_TRUE(schedule(MaxUrgencyPolicy{}, context).empty());
  EXPECT_TRUE(schedule(SoonestDeadlinePolicy{}, context).empty());
}

TEST(BatchPolicies, EveryTaskAssignedExactlyOnce) {
  const EetMatrix matrix = eet();
  std::vector<e2c::workload::TaskDef> tasks;
  for (std::uint64_t i = 0; i < 6; ++i) {
    tasks.push_back(queued_task(i, i % 3, 100.0 + static_cast<double>(i)));
  }
  std::vector<const e2c::workload::TaskDef*> queue;
  for (const auto& task : tasks) queue.push_back(&task);

  std::vector<std::unique_ptr<e2c::sched::Policy>> policies;
  policies.push_back(std::make_unique<MinMinPolicy>());
  policies.push_back(std::make_unique<MaxUrgencyPolicy>());
  policies.push_back(std::make_unique<SoonestDeadlinePolicy>());
  for (const auto& policy : policies) {
    auto context = make_context(matrix, queue);
    const auto assignments = schedule(*policy, context);
    EXPECT_EQ(assignments.size(), 6u) << policy->name();
    std::set<e2c::workload::TaskId> seen;
    for (const auto& assignment : assignments) {
      EXPECT_TRUE(seen.insert(assignment.task).second) << policy->name();
    }
  }
}

}  // namespace
