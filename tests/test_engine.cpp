// Unit tests for the discrete-event engine (core/engine.hpp).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace {

using e2c::core::Engine;
using e2c::core::EventPriority;

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  double seen = -1.0;
  (void)engine.schedule_at(7.5, EventPriority::kControl, "tick",
                           [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  std::vector<double> times;
  (void)engine.schedule_at(2.0, EventPriority::kControl, "outer", [&] {
    times.push_back(engine.now());
    (void)engine.schedule_in(3.0, EventPriority::kControl, "inner",
                             [&] { times.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  (void)engine.schedule_at(5.0, EventPriority::kControl, "x", {});
  engine.run();
  EXPECT_THROW(
      (void)engine.schedule_at(1.0, EventPriority::kControl, "past", {}),
      e2c::InvariantError);
  EXPECT_THROW((void)engine.schedule_in(-1.0, EventPriority::kControl, "neg", {}),
               e2c::InvariantError);
}

TEST(Engine, StepProcessesExactlyOneEvent) {
  Engine engine;
  int fired = 0;
  (void)engine.schedule_at(1.0, EventPriority::kControl, "a", [&] { ++fired; });
  (void)engine.schedule_at(2.0, EventPriority::kControl, "b", [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.step());  // nothing left
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine engine;
  std::vector<std::string> fired;
  (void)engine.schedule_at(1.0, EventPriority::kControl, "a",
                           [&] { fired.push_back("a"); });
  (void)engine.schedule_at(5.0, EventPriority::kControl, "b",
                           [&] { fired.push_back("b"); });
  (void)engine.schedule_at(9.0, EventPriority::kControl, "c",
                           [&] { fired.push_back("c"); });
  engine.run_until(5.0);  // inclusive
  EXPECT_EQ(fired, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  EXPECT_EQ(engine.pending_count(), 1u);
  engine.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, RunUntilAdvancesClockWithNoEvents) {
  Engine engine;
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  int fired = 0;
  const auto id = engine.schedule_at(1.0, EventPriority::kControl, "x", [&] { ++fired; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, ResetRewindsClockAndCalendar) {
  Engine engine;
  (void)engine.schedule_at(3.0, EventPriority::kControl, "x", {});
  engine.run();
  engine.reset();
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.processed_count(), 0u);
  EXPECT_EQ(engine.pending_count(), 0u);
}

TEST(Engine, ProcessedCountTracksEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) {
    (void)engine.schedule_at(static_cast<double>(i), EventPriority::kControl, "", {});
  }
  engine.run();
  EXPECT_EQ(engine.processed_count(), 5u);
}

TEST(Engine, PeekNextShowsUpcomingEvent) {
  Engine engine;
  EXPECT_FALSE(engine.peek_next().has_value());
  (void)engine.schedule_at(4.0, EventPriority::kControl, "soon", {});
  ASSERT_TRUE(engine.peek_next().has_value());
  EXPECT_EQ(engine.peek_next()->label, "soon");
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  int chain = 0;
  // EventFn only stores trivially-copyable closures, so the recursive
  // std::function is captured by reference through a thin lambda.
  std::function<void()> extend = [&] {
    if (++chain < 10) {
      (void)engine.schedule_in(1.0, EventPriority::kControl, "chain",
                               [&] { extend(); });
    }
  };
  (void)engine.schedule_at(0.0, EventPriority::kControl, "start", [&] { extend(); });
  engine.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

}  // namespace
