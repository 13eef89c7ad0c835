// Unit tests for the immediate policies FCFS / MEET / MECT
// (sched/immediate.hpp), exercised directly on scheduling contexts.
#include "sched/immediate.hpp"

#include <gtest/gtest.h>

#include "support/schedule.hpp"
#include "test_helpers.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::sched::Assignment;
using e2c::sched::FcfsPolicy;
using e2c::sched::MectPolicy;
using e2c::sched::MeetPolicy;
using e2c::sched::PolicyMode;
using e2c::test::make_context;
using e2c::test::queued_task;
using e2c::test::schedule;

// 2 task types x 3 machines; T1 fastest on m1 (index 1), T2 fastest on m2.
EetMatrix eet() {
  return EetMatrix({"T1", "T2"}, {"m0", "m1", "m2"}, {{5.0, 1.0, 3.0}, {4.0, 6.0, 2.0}});
}

TEST(ImmediatePolicies, ModesAndNames) {
  EXPECT_EQ(FcfsPolicy{}.mode(), PolicyMode::kImmediate);
  EXPECT_EQ(MeetPolicy{}.mode(), PolicyMode::kImmediate);
  EXPECT_EQ(MectPolicy{}.mode(), PolicyMode::kImmediate);
  EXPECT_EQ(FcfsPolicy{}.name(), "FCFS");
  EXPECT_EQ(MeetPolicy{}.name(), "MEET");
  EXPECT_EQ(MectPolicy{}.name(), "MECT");
}

TEST(Fcfs, PicksEarliestReadyMachine) {
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);
  auto context = make_context(matrix, {&task}, e2c::sched::kUnlimitedSlots,
                              {4.0, 2.0, 7.0});
  const auto assignments = schedule(FcfsPolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);  // ready at 2.0
}

TEST(Fcfs, TieBreaksToLowerMachineId) {
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);
  auto context = make_context(matrix, {&task});
  const auto assignments = schedule(FcfsPolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 0u);
}

TEST(Fcfs, IgnoresExecutionTimes) {
  // m0 is slow for T1 (5.0) but becomes ready first: FCFS still picks it.
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);
  auto context = make_context(matrix, {&task}, e2c::sched::kUnlimitedSlots,
                              {1.0, 2.0, 2.0});
  const auto assignments = schedule(FcfsPolicy{}, context);
  EXPECT_EQ(assignments[0].machine, 0u);
}

TEST(Meet, PicksFastestMachineIgnoringLoad) {
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);  // T1 fastest on m1
  auto context = make_context(matrix, {&task}, e2c::sched::kUnlimitedSlots,
                              {0.0, 100.0, 0.0});  // m1 heavily loaded
  const auto assignments = schedule(MeetPolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);  // still the EET minimizer
}

TEST(Mect, BalancesLoadAndSpeed) {
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);
  // m1 completes at 100+1, m2 at 0+3, m0 at 0+5 -> m2 wins.
  auto context = make_context(matrix, {&task}, e2c::sched::kUnlimitedSlots,
                              {0.0, 100.0, 0.0});
  const auto assignments = schedule(MectPolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 2u);
}

TEST(Mect, EqualsMeetOnIdleMachines) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 1);
  for (const auto* task : {&t1, &t2}) {
    auto meet_ctx = make_context(matrix, {task});
    auto mect_ctx = make_context(matrix, {task});
    EXPECT_EQ(schedule(MeetPolicy{}, meet_ctx)[0].machine,
              schedule(MectPolicy{}, mect_ctx)[0].machine);
  }
}

TEST(ImmediatePolicies, MapEveryQueuedTaskInArrivalOrder) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 0);
  const auto t3 = queued_task(3, 1);
  auto context = make_context(matrix, {&t1, &t2, &t3});
  const auto assignments = schedule(MectPolicy{}, context);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].task, 1u);
  EXPECT_EQ(assignments[1].task, 2u);
  EXPECT_EQ(assignments[2].task, 3u);
}

TEST(Mect, ProjectionSpreadsConsecutiveTasks) {
  // Two T1 tasks: the first goes to m1 (EET 1). With the projection, m1's
  // ready time becomes 1.0; the second task compares m1 at 1+1=2 vs m2 at
  // 0+3 vs m0 at 0+5 and still picks m1. A third picks m1 again (2+1=3 == m2
  // 3: tie to lower id => m1). The projection is what makes this reasoning
  // possible at all within one invocation.
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 0);
  const auto t3 = queued_task(3, 0);
  const auto t4 = queued_task(4, 0);
  auto context = make_context(matrix, {&t1, &t2, &t3, &t4});
  const auto assignments = schedule(MectPolicy{}, context);
  ASSERT_EQ(assignments.size(), 4u);
  EXPECT_EQ(assignments[0].machine, 1u);
  EXPECT_EQ(assignments[1].machine, 1u);
  EXPECT_EQ(assignments[2].machine, 1u);  // 3 == 3 tie -> lower id is m1? m1=1 < m2=2
  EXPECT_EQ(assignments[3].machine, 2u);  // m1 now 4 > m2 3
}

TEST(Meet, TieBreaksByLoadOnHomogeneousRows) {
  // All machines equal for this task type: MEET must fall back to the
  // least-loaded machine instead of herding everything onto machine 0.
  const EetMatrix homog({"T1"}, {"m0", "m1", "m2"}, {{3.0, 3.0, 3.0}});
  const auto task = queued_task(1, 0);
  auto context = make_context(homog, {&task}, e2c::sched::kUnlimitedSlots,
                              {5.0, 1.0, 9.0});
  const auto assignments = schedule(MeetPolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);  // least loaded among the tie
}

TEST(Meet, HomogeneousStreamSpreadsLikeFcfs) {
  const EetMatrix homog({"T1"}, {"m0", "m1"}, {{3.0, 3.0}});
  const auto t1 = queued_task(1, 0);
  const auto t2 = queued_task(2, 0);
  auto meet_ctx = make_context(homog, {&t1, &t2});
  auto fcfs_ctx = make_context(homog, {&t1, &t2});
  const auto meet = schedule(MeetPolicy{}, meet_ctx);
  const auto fcfs = schedule(FcfsPolicy{}, fcfs_ctx);
  ASSERT_EQ(meet.size(), 2u);
  for (std::size_t i = 0; i < meet.size(); ++i) {
    EXPECT_EQ(meet[i].machine, fcfs[i].machine);
  }
}

TEST(ImmediatePolicies, NoSpaceAnywhereMapsNothing) {
  const EetMatrix matrix = eet();
  const auto task = queued_task(1, 0);
  auto context = make_context(matrix, {&task}, /*free_slots=*/0);
  EXPECT_TRUE(schedule(FcfsPolicy{}, context).empty());
  EXPECT_TRUE(schedule(MeetPolicy{}, context).empty());
  EXPECT_TRUE(schedule(MectPolicy{}, context).empty());
}

TEST(ImmediatePolicies, EmptyQueueMapsNothing) {
  const EetMatrix matrix = eet();
  auto context = make_context(matrix, {});
  EXPECT_TRUE(schedule(FcfsPolicy{}, context).empty());
}

}  // namespace
