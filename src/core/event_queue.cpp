#include "core/event_queue.hpp"

#include <bit>
#include <utility>

#include "util/error.hpp"

namespace e2c::core {

const char* event_priority_name(EventPriority priority) noexcept {
  switch (priority) {
    case EventPriority::kCompletion: return "completion";
    case EventPriority::kDeadline: return "deadline";
    case EventPriority::kArrival: return "arrival";
    case EventPriority::kSchedule: return "schedule";
    case EventPriority::kControl: return "control";
  }
  return "unknown";
}

std::string EventLabel::str() const {
  std::string text;
  text.reserve(48);
  text += prefix_;
  if (has_number_) text += std::to_string(number_);
  text += mid_;
  text += text_;
  return text;
}

EventQueue::OrderKey EventQueue::make_key(SimTime time, EventPriority priority,
                                          std::uint64_t sequence) noexcept {
  // Monotone map from double to uint64: flip all bits of negatives, set the
  // sign bit of non-negatives. `time + 0.0` folds -0.0 into +0.0 first so
  // the two zeros (numerically equal, so ordered by priority/sequence under
  // the old compare) cannot order by sign bit here.
  const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);
  const std::uint64_t ordered =
      (bits & 0x8000000000000000ull) != 0 ? ~bits : bits | 0x8000000000000000ull;
  return (static_cast<OrderKey>(ordered) << 64) |
         (static_cast<std::uint64_t>(priority) << kPriorityShift) | sequence;
}

std::uint64_t EventQueue::take_sequence() {
  e2c::require(next_sequence_ < kMaxSequence, "EventQueue sequence space exhausted");
  return next_sequence_++;
}

EventId EventQueue::schedule(SimTime time, EventPriority priority, EventLabel label,
                             EventFn fn) {
  return insert(make_key(time, priority, take_sequence()), time, label, fn,
                /*cancellable=*/true);
}

void EventQueue::post(SimTime time, EventPriority priority, EventLabel label, EventFn fn) {
  const OrderKey key = make_key(time, priority, take_sequence());
  const auto bit = static_cast<std::uint8_t>(1u << static_cast<unsigned>(priority));
  Posted& held = posted_[static_cast<std::size_t>(priority)];
  if ((posted_mask_ & bit) == 0) {
    held = Posted{key, time, label, fn};
    posted_mask_ |= bit;
    return;
  }
  // The slot is taken: the later-keyed of the two events goes to the heap.
  if (held.key < key) {
    (void)insert(key, time, label, fn, /*cancellable=*/false);
    return;
  }
  (void)insert(held.key, held.time, held.label, held.fn, /*cancellable=*/false);
  held = Posted{key, time, label, fn};
}

EventId EventQueue::insert(OrderKey key, SimTime time, EventLabel label, EventFn fn,
                           bool cancellable) {
  std::uint32_t slot_index;
  if (free_slots_.empty()) {
    slot_index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[slot_index];
  // The id carries its own slot reference: (generation << 32) | (slot + 1).
  // The +1 keeps the id from ever being kNoEvent (slot 0, generation 0);
  // the generation half makes ids from a recycled slot distinct, so cancel()
  // can validate a stale id in O(1) without any id→slot lookup table. A
  // posted event's slot records kNoEvent, which no cancel() matches.
  const EventId id =
      cancellable ? (static_cast<EventId>(slot.generation) << 32) | (slot_index + 1)
                  : kNoEvent;
  const std::size_t lane =
      priority_of(key) == EventPriority::kDeadline ? kDeadlineLane : kMainLane;
  slot.id = id;
  slot.live = true;
  slot.lane = static_cast<std::uint8_t>(lane);
  slot.label = label;
  slot.fn = fn;

  Lane& heap = lanes_[lane];
  heap.push_back(HeapNode{key, time, slot_index});
  sift_up(heap, heap.size() - 1);
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == kNoEvent) return false;
  const std::uint32_t slot_index = static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  if (slot_index >= slots_.size()) return false;
  const Slot& slot = slots_[slot_index];
  if (!slot.live || slot.id != id) return false;
  const std::size_t lane = slot.lane;
  const std::size_t index = slot.position;
  release(slot_index);
  remove_at(lane, index);
  return true;
}

std::size_t EventQueue::front() const noexcept {
  // All-ones is above every real key: its time half would be a NaN.
  OrderKey best_key = ~OrderKey{0};
  std::size_t best = kMainLane;
  for (std::size_t lane : {kMainLane, kDeadlineLane}) {
    if (!lanes_[lane].empty() && lanes_[lane].front().key < best_key) {
      best_key = lanes_[lane].front().key;
      best = lane;
    }
  }
  for (unsigned mask = posted_mask_; mask != 0; mask &= mask - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(mask));
    if (posted_[c].key < best_key) {
      best_key = posted_[c].key;
      best = kPostedFront + c;
    }
  }
  return best;
}

std::optional<SimTime> EventQueue::next_time() const noexcept {
  if (empty()) return std::nullopt;
  const std::size_t source = front();
  if (source >= kPostedFront) return posted_[source - kPostedFront].time;
  return lanes_[source].front().time;
}

std::optional<EventRecord> EventQueue::peek() const {
  if (empty()) return std::nullopt;
  const std::size_t source = front();
  if (source >= kPostedFront) {
    const Posted& posted = posted_[source - kPostedFront];
    return EventRecord{kNoEvent, posted.time, priority_of(posted.key), posted.label.str()};
  }
  const HeapNode& top = lanes_[source].front();
  const Slot& slot = slots_[top.slot];
  return EventRecord{slot.id, top.time, priority_of(top.key), slot.label.str()};
}

EventQueue::DueEvent EventQueue::pop() {
  e2c::require(!empty(), "EventQueue::pop on empty queue");
  const std::size_t source = front();
  if (source >= kPostedFront) {
    const std::size_t c = source - kPostedFront;
    posted_mask_ = static_cast<std::uint8_t>(posted_mask_ & ~(1u << c));
    return DueEvent{posted_[c].time, posted_[c].fn};
  }
  const HeapNode top = take_root(source);
  return DueEvent{top.time, slots_[top.slot].fn};
}

void EventQueue::clear() noexcept {
  for (Lane& heap : lanes_) heap.clear();
  posted_mask_ = 0;
  free_slots_.clear();
  // Keep the slots (the slab is the arena — reuse it across resets) but bump
  // the generation of every live one so ids handed out before the clear can
  // never alias an event scheduled after it.
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.live) {
      slot.live = false;
      ++slot.generation;
    }
    free_slots_.push_back(i);
  }
}

EventQueue::HeapNode EventQueue::take_root(std::size_t lane) {
  const HeapNode top = lanes_[lane].front();
  release(top.slot);
  remove_at(lane, 0);
  return top;
}

void EventQueue::release(std::uint32_t slot_index) {
  // The payload is left in place — it is trivially destructible by
  // construction, and the next schedule() into this slot overwrites it.
  // The push comes first: if it throws, the queue is unchanged.
  free_slots_.push_back(slot_index);
  Slot& slot = slots_[slot_index];
  slot.live = false;
  ++slot.generation;
}

void EventQueue::remove_at(std::size_t lane, std::size_t index) noexcept {
  Lane& heap = lanes_[lane];
  const HeapNode last = heap.back();
  heap.pop_back();
  if (index == heap.size()) return;  // the hole was the last node
  // The replacement comes from another subtree, so it may belong above the
  // hole as well as below it.
  heap[index] = last;
  if (index > 0 && last.precedes(heap[(index - 1) / kArity])) {
    sift_up(heap, index);
  } else {
    sift_down(heap, index);
  }
}

void EventQueue::sift_up(Lane& heap, std::size_t index) noexcept {
  const HeapNode node = heap[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!node.precedes(heap[parent])) break;
    place(heap, index, heap[parent]);
    index = parent;
  }
  place(heap, index, node);
}

void EventQueue::sift_down(Lane& heap, std::size_t index) noexcept {
  const HeapNode node = heap[index];
  const std::size_t count = heap.size();
  while (true) {
    const std::size_t first_child = index * kArity + 1;
    if (first_child >= count) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kArity < count ? first_child + kArity : count;
    for (std::size_t child = first_child + 1; child < last_child; ++child) {
      if (heap[child].precedes(heap[best])) best = child;
    }
    if (!heap[best].precedes(node)) break;
    place(heap, index, heap[best]);
    index = best;
  }
  place(heap, index, node);
}

}  // namespace e2c::core
