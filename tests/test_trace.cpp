// Unit tests for the step-loop event trace (support/event_trace.hpp).
#include "support/event_trace.hpp"

#include <gtest/gtest.h>

namespace {

using e2c::core::Engine;
using e2c::core::EventPriority;
using e2c::test::EventTrace;

TEST(Trace, RecordsAllEvents) {
  Engine engine;
  EventTrace trace;
  (void)engine.schedule_at(1.0, EventPriority::kArrival, "a", {});
  (void)engine.schedule_at(2.0, EventPriority::kCompletion, "b", {});
  trace.record(engine);
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].label, "a");
  EXPECT_EQ(trace.records()[1].label, "b");
  EXPECT_DOUBLE_EQ(trace.records()[1].time, 2.0);
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.processed_count(), 2u);
}

TEST(Trace, MonotonicOnOrderedRun) {
  Engine engine;
  EventTrace trace;
  (void)engine.schedule_at(2.0, EventPriority::kArrival, "later", {});
  (void)engine.schedule_at(2.0, EventPriority::kCompletion, "first", {});
  (void)engine.schedule_at(1.0, EventPriority::kSchedule, "earliest", {});
  trace.record(engine);
  EXPECT_TRUE(trace.is_monotonic());
}

TEST(Trace, CsvRowsHaveHeaderAndData) {
  Engine engine;
  EventTrace trace;
  (void)engine.schedule_at(1.5, EventPriority::kArrival, "task", {});
  trace.record(engine);
  const auto rows = trace.to_csv_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "time");
  EXPECT_EQ(rows[1][0], "1.5000");
  EXPECT_EQ(rows[1][1], "arrival");
  EXPECT_EQ(rows[1][2], "task");
}

TEST(Trace, ClearForgets) {
  Engine engine;
  EventTrace trace;
  (void)engine.schedule_at(1.0, EventPriority::kArrival, "x", {});
  trace.record(engine);
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, RecordUntilStopsAtTheHorizonAndMovesTheClock) {
  Engine engine;
  EventTrace trace;
  (void)engine.schedule_at(1.0, EventPriority::kArrival, "a", {});
  (void)engine.schedule_at(2.0, EventPriority::kArrival, "b", {});
  (void)engine.schedule_at(3.0, EventPriority::kArrival, "c", {});
  trace.record_until(engine, 2.5);
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[1].label, "b");
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  EXPECT_EQ(engine.pending_count(), 1u);
  trace.record(engine);
  ASSERT_EQ(trace.records().size(), 3u);
  EXPECT_EQ(trace.records()[2].label, "c");
}

}  // namespace
