// Unit tests for the discrete-event engine (core/engine.hpp).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using e2c::core::Engine;
using e2c::core::EventPriority;
using e2c::core::EventRecord;

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

TEST(Engine, PostedEventsFireInScheduleOrder) {
  Engine engine;
  std::vector<std::string> fired;
  engine.post_at(2.0, EventPriority::kArrival, "posted", [&] { fired.push_back("posted"); });
  (void)engine.schedule_at(2.0, EventPriority::kArrival, "scheduled",
                           [&] { fired.push_back("scheduled"); });
  (void)engine.schedule_at(2.0, EventPriority::kCompletion, "first",
                           [&] { fired.push_back("first"); });
  EXPECT_EQ(engine.pending_count(), 3u);
  ASSERT_TRUE(engine.peek_next().has_value());
  EXPECT_EQ(engine.peek_next()->label, "first");
  engine.run();
  EXPECT_EQ(fired, (std::vector<std::string>{"first", "posted", "scheduled"}));
  EXPECT_EQ(engine.processed_count(), 3u);
}

TEST(Engine, PostedEventHasNoId) {
  Engine engine;
  engine.post_at(1.0, EventPriority::kSchedule, "round", {});
  engine.post_at(1.0, EventPriority::kSchedule, "second round", {});  // into the heap
  ASSERT_TRUE(engine.peek_next().has_value());
  EXPECT_EQ(engine.peek_next()->id, e2c::core::kNoEvent);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.peek_next()->label, "second round");
  EXPECT_EQ(engine.peek_next()->id, e2c::core::kNoEvent);
  EXPECT_THROW(engine.post_at(-1.0, EventPriority::kArrival, "past", {}),
               e2c::InvariantError);
}

// Drives one engine through a seeded random event stream. Every event's
// callback may schedule more events, at now() or later, and cancel pending
// ones. With `posting` set, the events whose number is a multiple of three
// go through post_at() instead of schedule_at(); those are never cancelled,
// in either mode, so the two modes make exactly the same random draws as
// long as the engine pops the same events in the same order.
class EventStream {
 public:
  EventStream(std::uint64_t seed, bool posting) : rng_(seed), posting_(posting) {}

  Engine& engine() noexcept { return engine_; }

  /// A fresh batch of root events from now(), including one burst of
  /// same-class postable events so the per-class slot overflows.
  void seed_events() {
    for (int i = 0; i < 6; ++i) add(draw_time(), EventPriority::kSchedule, /*postable=*/true);
    for (int i = 0; i < 24; ++i) add(draw_time(), draw_priority());
  }

  /// True if the pending event with number \p number went through post_at.
  [[nodiscard]] bool posted(std::uint64_t number) const noexcept {
    return posting_ && number % 3 == 0;
  }

  void fire() {
    const int children = static_cast<int>(rng_.uniform_int(0, 3));
    for (int i = 0; i < children && next_ < 3000; ++i) {
      // Half the children land at now(): posts made from inside a callback
      // at the current instant, in any class.
      const double time = rng_.bernoulli(0.5) ? engine_.now() : draw_time();
      add(time, draw_priority());
    }
    if (!cancellable_.empty() && rng_.bernoulli(0.3)) {
      const auto index = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(cancellable_.size()) - 1));
      (void)engine_.cancel(cancellable_[index]);
      cancellable_[index] = cancellable_.back();
      cancellable_.pop_back();
    }
  }

 private:
  double draw_time() {
    // Few distinct instants, so time ties (and priority ties) are common.
    return engine_.now() + static_cast<double>(rng_.uniform_int(0, 9));
  }
  EventPriority draw_priority() { return static_cast<EventPriority>(rng_.uniform_int(0, 4)); }

  /// Adds the next-numbered event; \p postable skips ahead to the next
  /// multiple of three.
  void add(double time, EventPriority priority, bool postable = false) {
    if (postable) next_ += (3 - next_ % 3) % 3;
    const std::uint64_t number = next_++;
    const e2c::core::EventLabel label("event ", number);
    auto fn = [this] { fire(); };
    if (posted(number)) {
      engine_.post_at(time, priority, label, fn);
    } else {
      const e2c::core::EventId id = engine_.schedule_at(time, priority, label, fn);
      if (number % 3 != 0) cancellable_.push_back(id);
    }
  }

  Engine engine_;
  e2c::util::Rng rng_;
  bool posting_;
  std::uint64_t next_ = 0;
  std::vector<e2c::core::EventId> cancellable_;
};

class EnginePostEquivalenceTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EnginePostEquivalenceTest, PostAtPopsLikeScheduleAt) {
  EventStream scheduled(GetParam(), /*posting=*/false);
  EventStream posted(GetParam(), /*posting=*/true);
  e2c::util::Rng control(GetParam() ^ 0xC0FFEEu);
  std::size_t compared = 0;
  std::size_t posted_seen = 0;

  // Same peek, pending count, clock and processed count on both engines.
  const auto expect_same_state = [&] {
    EXPECT_EQ(scheduled.engine().pending_count(), posted.engine().pending_count());
    EXPECT_EQ(scheduled.engine().processed_count(), posted.engine().processed_count());
    EXPECT_EQ(scheduled.engine().now(), posted.engine().now());
    const std::optional<EventRecord> a = scheduled.engine().peek_next();
    const std::optional<EventRecord> b = posted.engine().peek_next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) return;
    EXPECT_EQ(a->time, b->time);
    EXPECT_EQ(a->priority, b->priority);
    EXPECT_EQ(a->label, b->label);
    EXPECT_NE(a->id, e2c::core::kNoEvent);
    const std::uint64_t number = std::stoull(b->label.substr(6));
    if (posted.posted(number)) {
      EXPECT_EQ(b->id, e2c::core::kNoEvent);
      ++posted_seen;
    } else {
      EXPECT_NE(b->id, e2c::core::kNoEvent);
    }
    ++compared;
  };

  for (int round = 0; round < 2; ++round) {
    // The second round starts from a mid-run reset.
    scheduled.seed_events();
    posted.seed_events();
    expect_same_state();
    while (scheduled.engine().pending_count() != 0) {
      if (control.bernoulli(0.02)) {
        const double horizon =
            scheduled.engine().now() + static_cast<double>(control.uniform_int(0, 1));
        scheduled.engine().run_until(horizon);
        posted.engine().run_until(horizon);
      } else {
        ASSERT_TRUE(scheduled.engine().step());
        ASSERT_TRUE(posted.engine().step());
      }
      expect_same_state();
      if (HasFatalFailure()) return;
      if (round == 0 && scheduled.engine().processed_count() >= 300) {
        scheduled.engine().reset();
        posted.engine().reset();
        expect_same_state();
        break;
      }
    }
  }
  EXPECT_FALSE(posted.engine().step());
  EXPECT_GT(compared, 400u);
  EXPECT_GT(posted_seen, 150u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePostEquivalenceTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
