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

EventId EventQueue::schedule(SimTime time, EventPriority priority, EventLabel label,
                             EventFn fn) {
  e2c::require(next_sequence_ < kMaxSequence, "EventQueue sequence space exhausted");
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
  // can validate a stale id in O(1) without any id→slot lookup table.
  const EventId id =
      (static_cast<EventId>(slot.generation) << 32) | (slot_index + 1);
  const std::size_t lane = priority == EventPriority::kDeadline ? kDeadlineLane : kMainLane;
  slot.id = id;
  slot.live = true;
  slot.lane = static_cast<std::uint8_t>(lane);
  slot.label = label;
  slot.fn = fn;

  Lane& heap = lanes_[lane];
  heap.push_back(HeapNode{make_key(time, priority, next_sequence_++), time, slot_index});
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

std::size_t EventQueue::front_lane() const noexcept {
  const Lane& main = lanes_[kMainLane];
  const Lane& deadlines = lanes_[kDeadlineLane];
  if (deadlines.empty()) return kMainLane;
  if (main.empty()) return kDeadlineLane;
  return deadlines.front().precedes(main.front()) ? kDeadlineLane : kMainLane;
}

std::optional<SimTime> EventQueue::next_time() const noexcept {
  if (empty()) return std::nullopt;
  return lanes_[front_lane()].front().time;
}

std::optional<EventRecord> EventQueue::peek() const {
  if (empty()) return std::nullopt;
  const HeapNode& top = lanes_[front_lane()].front();
  const Slot& slot = slots_[top.slot];
  return EventRecord{slot.id, top.time, top.priority(), slot.label.str()};
}

EventQueue::DueEvent EventQueue::pop() {
  e2c::require(!empty(), "EventQueue::pop on empty queue");
  const HeapNode top = take_front();
  return DueEvent{top.time, slots_[top.slot].fn};
}

void EventQueue::clear() noexcept {
  for (Lane& heap : lanes_) heap.clear();
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

EventQueue::HeapNode EventQueue::take_front() {
  const std::size_t lane = front_lane();
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
