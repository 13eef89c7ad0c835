// Unit tests for the pending-event calendar (core/event_queue.hpp).
#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using e2c::core::EventPriority;
using e2c::core::EventQueue;
using e2c::core::EventRecord;

/// Reads the earliest event through peek(), then pops it; the pop must hand
/// back the time peek() showed.
EventRecord pop_record(EventQueue& queue) {
  const EventRecord record = queue.peek().value();
  EXPECT_DOUBLE_EQ(queue.pop().time, record.time);
  return record;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  (void)queue.schedule(3.0, EventPriority::kArrival, "c", {});
  (void)queue.schedule(1.0, EventPriority::kArrival, "a", {});
  (void)queue.schedule(2.0, EventPriority::kArrival, "b", {});
  EXPECT_EQ(pop_record(queue).label, "a");
  EXPECT_EQ(pop_record(queue).label, "b");
  EXPECT_EQ(pop_record(queue).label, "c");
}

TEST(EventQueue, PriorityBreaksTimeTies) {
  EventQueue queue;
  (void)queue.schedule(5.0, EventPriority::kArrival, "arrival", {});
  (void)queue.schedule(5.0, EventPriority::kCompletion, "completion", {});
  (void)queue.schedule(5.0, EventPriority::kDeadline, "deadline", {});
  (void)queue.schedule(5.0, EventPriority::kSchedule, "schedule", {});
  // completion < deadline < arrival < schedule
  EXPECT_EQ(pop_record(queue).label, "completion");
  EXPECT_EQ(pop_record(queue).label, "deadline");
  EXPECT_EQ(pop_record(queue).label, "arrival");
  EXPECT_EQ(pop_record(queue).label, "schedule");
}

TEST(EventQueue, InsertionOrderBreaksFullTies) {
  EventQueue queue;
  (void)queue.schedule(1.0, EventPriority::kArrival, "first", {});
  (void)queue.schedule(1.0, EventPriority::kArrival, "second", {});
  (void)queue.schedule(1.0, EventPriority::kArrival, "third", {});
  EXPECT_EQ(pop_record(queue).label, "first");
  EXPECT_EQ(pop_record(queue).label, "second");
  EXPECT_EQ(pop_record(queue).label, "third");
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, EventPriority::kArrival, "a", {});
  (void)queue.schedule(2.0, EventPriority::kArrival, "b", {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(pop_record(queue).label, "b");
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(9999));
  const auto id = queue.schedule(1.0, EventPriority::kArrival, "a", {});
  (void)queue.pop();
  EXPECT_FALSE(queue.cancel(id));  // already fired
}

TEST(EventQueue, NextTimeAndPeek) {
  EventQueue queue;
  EXPECT_FALSE(queue.next_time().has_value());
  EXPECT_FALSE(queue.peek().has_value());
  (void)queue.schedule(4.5, EventPriority::kControl, "x", {});
  EXPECT_DOUBLE_EQ(queue.next_time().value(), 4.5);
  EXPECT_EQ(queue.peek().value().label, "x");
  EXPECT_EQ(queue.size(), 1u);  // peek does not remove
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW((void)queue.pop(), e2c::InvariantError);
}

TEST(EventQueue, ClearEmptiesEverything) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, EventPriority::kArrival, "a", {});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CallbackSurvivesPop) {
  EventQueue queue;
  int fired = 0;
  (void)queue.schedule(1.0, EventPriority::kArrival, "a", [&fired] { ++fired; });
  auto popped = queue.pop();
  popped.fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, IdsAreUniqueAndNonZero) {
  EventQueue queue;
  std::vector<e2c::core::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(queue.schedule(1.0, EventPriority::kArrival, "", {}));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], e2c::core::kNoEvent);
    for (std::size_t j = i + 1; j < ids.size(); ++j) EXPECT_NE(ids[i], ids[j]);
  }
}

// Randomized differential test: a mixed schedule/cancel/pop workload must
// match a naive reference model (sorted vector) exactly, across seeds.
class EventQueueFuzzTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzzTest, MatchesReferenceModel) {
  using Key = std::tuple<double, int, std::uint64_t>;  // time, priority, seq
  e2c::util::Rng rng(GetParam());
  EventQueue queue;
  std::vector<std::pair<Key, e2c::core::EventId>> reference;
  std::uint64_t seq = 0;
  std::vector<e2c::core::EventId> live_ids;

  for (int step = 0; step < 2000; ++step) {
    const double action = rng.next_double();
    if (action < 0.55 || queue.empty()) {
      const double time = rng.uniform(0.0, 100.0);
      const auto priority = static_cast<EventPriority>(rng.uniform_int(0, 4));
      const auto id = queue.schedule(time, priority, "", {});
      reference.push_back({Key{time, static_cast<int>(priority), seq++}, id});
      live_ids.push_back(id);
    } else if (action < 0.75 && !live_ids.empty()) {
      // Cancel a random live id (may already have been popped).
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_ids.size()) - 1));
      const e2c::core::EventId id = live_ids[index];
      const bool in_reference =
          std::any_of(reference.begin(), reference.end(),
                      [id](const auto& entry) { return entry.second == id; });
      EXPECT_EQ(queue.cancel(id), in_reference);
      reference.erase(std::remove_if(reference.begin(), reference.end(),
                                     [id](const auto& entry) {
                                       return entry.second == id;
                                     }),
                      reference.end());
    } else {
      const auto expected =
          std::min_element(reference.begin(), reference.end(),
                           [](const auto& a, const auto& b) { return a.first < b.first; });
      const auto popped = pop_record(queue);
      ASSERT_NE(expected, reference.end());
      EXPECT_EQ(popped.id, expected->second);
      reference.erase(expected);
    }
    EXPECT_EQ(queue.size(), reference.size());
  }
  // Drain and verify the final ordering end to end.
  std::sort(reference.begin(), reference.end());
  for (const auto& [key, id] : reference) {
    EXPECT_EQ(pop_record(queue).id, id);
  }
  EXPECT_TRUE(queue.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Which priority classes the model test schedules. Uniform spreads events
// over all five classes; deadline-heavy makes ~70% of them kDeadline, the
// shape of an oversubscribed run where every queued task holds a deadline
// timer and most are cancelled.
enum class PriorityMix { kUniform, kDeadlineHeavy };

EventPriority draw_priority(e2c::util::Rng& rng, PriorityMix mix) {
  if (mix == PriorityMix::kDeadlineHeavy) {
    if (rng.next_double() < 0.7) return EventPriority::kDeadline;
    constexpr EventPriority kOthers[] = {EventPriority::kCompletion, EventPriority::kArrival,
                                         EventPriority::kSchedule, EventPriority::kControl};
    return kOthers[rng.uniform_int(0, 3)];
  }
  return static_cast<EventPriority>(rng.uniform_int(0, 4));
}

// Property test against the calendar's previous implementation: an ordered
// std::map keyed by (time, priority, sequence) — the exact structure the
// d-ary heap replaced. The heap must be observationally indistinguishable:
// same pop order, same size() after every step, same cancel() results.
class EventQueueMapModelTest
    : public testing::TestWithParam<std::tuple<std::uint64_t, PriorityMix>> {};

TEST_P(EventQueueMapModelTest, BehavesLikeOrderedMapCalendar) {
  using Key = std::tuple<double, int, std::uint64_t>;  // time, priority, seq
  const auto [seed, mix] = GetParam();
  e2c::util::Rng rng(seed);
  EventQueue queue;
  std::map<Key, e2c::core::EventId> model;
  std::map<e2c::core::EventId, Key> key_of;  // live events only
  std::uint64_t seq = 0;
  std::vector<e2c::core::EventId> issued;  // every id ever returned

  for (int step = 0; step < 4000; ++step) {
    const double action = rng.next_double();
    if (action < 0.50 || model.empty()) {
      // Times drawn from a small lattice force heavy (time, priority) ties,
      // exercising the sequence tiebreaker rather than luck, and put events
      // of different classes at one instant (completion before deadline,
      // deadline before arrival).
      const double time = static_cast<double>(rng.uniform_int(0, 19)) * 0.5;
      const auto priority = draw_priority(rng, mix);
      const auto id = queue.schedule(time, priority, "", {});
      const Key key{time, static_cast<int>(priority), seq++};
      model.emplace(key, id);
      key_of.emplace(id, key);
      issued.push_back(id);
    } else if (action < 0.75) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1));
      const e2c::core::EventId id = issued[index];
      const auto it = key_of.find(id);
      const bool live = it != key_of.end();
      EXPECT_EQ(queue.cancel(id), live) << "id=" << id;
      EXPECT_FALSE(queue.cancel(id)) << "double cancel must fail, id=" << id;
      if (live) {
        model.erase(it->second);
        key_of.erase(it);
      }
    } else {
      const auto expected = model.begin();
      ASSERT_NE(expected, model.end());
      const auto popped = pop_record(queue);
      EXPECT_EQ(popped.id, expected->second);
      EXPECT_DOUBLE_EQ(popped.time, std::get<0>(expected->first));
      EXPECT_EQ(static_cast<int>(popped.priority), std::get<1>(expected->first));
      key_of.erase(expected->second);
      model.erase(expected);
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_TRUE(queue.next_time().has_value());
      EXPECT_DOUBLE_EQ(*queue.next_time(), std::get<0>(model.begin()->first));
    } else {
      EXPECT_FALSE(queue.next_time().has_value());
    }
  }
  while (!model.empty()) {
    EXPECT_EQ(pop_record(queue).id, model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(queue.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueMapModelTest,
    testing::Combine(testing::Values(11u, 12u, 13u, 14u, 15u, 16u),
                     testing::Values(PriorityMix::kUniform, PriorityMix::kDeadlineHeavy)),
    [](const auto& instance) {
      return std::to_string(std::get<0>(instance.param)) +
             (std::get<1>(instance.param) == PriorityMix::kUniform ? "_uniform" : "_deadline_heavy");
    });

TEST(EventQueue, CancelRootLastAndInteriorNodesKeepOrder) {
  // 39 deadline events pushed in level order with each time above its
  // parent's, so no push sifts and a 4-ary heap holds event i at index i.
  // Node 1's subtree (1, 5-8, 21-36) gets times above 100, the rest stays
  // below, so the heap is valid yet not sorted by index.
  const auto in_subtree_of_1 = [](std::size_t index) {
    while (index > 4) index = (index - 1) / 4;
    return index == 1;
  };
  using Key = std::tuple<double, int, std::uint64_t>;  // time, priority, seq
  EventQueue queue;
  std::vector<std::pair<Key, e2c::core::EventId>> expected;
  std::vector<e2c::core::EventId> ids;
  std::uint64_t seq = 0;
  const auto push = [&](double time, EventPriority priority) {
    const auto id = queue.schedule(time, priority, "", {});
    expected.push_back({Key{time, static_cast<int>(priority), seq++}, id});
    return id;
  };
  for (std::size_t i = 0; i < 39; ++i) {
    const double time = static_cast<double>(i) + (in_subtree_of_1(i) ? 100.0 : 0.0);
    ids.push_back(push(time, EventPriority::kDeadline));
  }
  // Other classes tie with deadlines at one instant: the completion goes
  // first, the arrival after.
  (void)push(105.0, EventPriority::kCompletion);
  (void)push(37.0, EventPriority::kArrival);
  (void)push(0.0, EventPriority::kSchedule);
  const auto cancel = [&](e2c::core::EventId id) {
    ASSERT_TRUE(queue.cancel(id));
    expected.erase(std::find_if(expected.begin(), expected.end(),
                                [id](const auto& entry) { return entry.second == id; }));
    EXPECT_EQ(queue.size(), expected.size());
  };
  cancel(ids[38]);  // the most recently pushed node: the hole is the last slot
  cancel(ids[5]);   // interior (children 21-24); its replacement, event 37
                    // at time 37 < 101, must sift up past node 1
  cancel(ids[0]);   // the root; its replacement sifts down
  EXPECT_FALSE(queue.cancel(ids[5]));
  std::sort(expected.begin(), expected.end());
  for (const auto& [key, id] : expected) {
    ASSERT_FALSE(queue.empty());
    EXPECT_DOUBLE_EQ(*queue.next_time(), std::get<0>(key));
    const auto popped = pop_record(queue);
    EXPECT_EQ(popped.id, id);
    EXPECT_EQ(static_cast<int>(popped.priority), std::get<1>(key));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TombstoneCompactionBoundsHeapGrowth) {
  // Cancel-heavy workloads (deadline drops, replica cancels, fault drains)
  // must keep the heap's physical size proportional to the live count, not
  // to the total cancel volume. Cancellation removes nodes in place, so
  // size() is the heap's node count and the bound below (the slack a lazily
  // compacted heap was allowed) holds with room to spare.
  EventQueue queue;
  std::vector<e2c::core::EventId> pinned;
  for (int i = 0; i < 8; ++i) {
    pinned.push_back(queue.schedule(1000.0, EventPriority::kControl, "pin", {}));
  }
  for (int round = 0; round < 5000; ++round) {
    const auto id = queue.schedule(static_cast<double>(round % 97), EventPriority::kArrival,
                                   "", {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_EQ(queue.size(), pinned.size());
    // live + tombstone slack (64) + the one transiently pushed node.
    EXPECT_LE(queue.size(), pinned.size() + 64 + 1) << "round=" << round;
  }
  // The pinned events survive the churn in exact order.
  for (const auto id : pinned) {
    EXPECT_EQ(pop_record(queue).id, id);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PriorityNames) {
  EXPECT_STREQ(e2c::core::event_priority_name(EventPriority::kCompletion), "completion");
  EXPECT_STREQ(e2c::core::event_priority_name(EventPriority::kSchedule), "schedule");
}

}  // namespace
