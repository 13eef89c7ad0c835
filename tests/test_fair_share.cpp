// Unit tests for the FairShare reference policy (sched/fair_share.hpp) —
// the worked solution to part 3 of the class assignment.
#include "sched/fair_share.hpp"

#include <gtest/gtest.h>

#include "support/schedule.hpp"
#include "test_helpers.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::sched::FairSharePolicy;
using e2c::test::make_context;
using e2c::test::queued_task;
using e2c::test::schedule;

EetMatrix eet() {
  return EetMatrix({"T1", "T2"}, {"m0", "m1"}, {{2.0, 6.0}, {5.0, 3.0}});
}

TEST(FairShare, NameAndMode) {
  EXPECT_EQ(FairSharePolicy{}.name(), "FairShare");
  EXPECT_EQ(FairSharePolicy{}.mode(), e2c::sched::PolicyMode::kBatch);
}

TEST(FairShare, SufferingTypeMapsFirst) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0, /*deadline=*/100.0);
  const auto t2 = queued_task(2, 1, /*deadline=*/200.0);
  // Type 1 has been starved (20% on-time) -> its task maps first even
  // though it arrived later and has the later deadline.
  auto context = make_context(matrix, {&t1, &t2}, e2c::sched::kUnlimitedSlots, {},
                              /*ontime=*/{1.0, 0.2});
  const auto assignments = schedule(FairSharePolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);
}

TEST(FairShare, EqualRatesFallBackToSoonestDeadline) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0, /*deadline=*/50.0);
  const auto t2 = queued_task(2, 0, /*deadline=*/10.0);
  auto context = make_context(matrix, {&t1, &t2}, e2c::sched::kUnlimitedSlots, {},
                              {1.0, 1.0});
  const auto assignments = schedule(FairSharePolicy{}, context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, 2u);  // soonest deadline
}

TEST(FairShare, MapsToMinCompletionMachine) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 1, /*deadline=*/100.0);  // T2: m1 (3) < m0 (5)
  auto context = make_context(matrix, {&t1});
  const auto assignments = schedule(FairSharePolicy{}, context);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1u);
}

TEST(FairShare, StopsWhenSaturated) {
  const EetMatrix matrix = eet();
  const auto t1 = queued_task(1, 0, 100.0);
  const auto t2 = queued_task(2, 1, 100.0);
  const auto t3 = queued_task(3, 0, 100.0);
  auto context = make_context(matrix, {&t1, &t2, &t3}, /*free_slots=*/1);
  EXPECT_EQ(schedule(FairSharePolicy{}, context).size(), 2u);  // one per machine
}

TEST(FairShare, EmptyQueueNoAssignments) {
  const EetMatrix matrix = eet();
  auto context = make_context(matrix, {});
  EXPECT_TRUE(schedule(FairSharePolicy{}, context).empty());
}

}  // namespace
