/// \file event_queue.hpp
/// \brief Pending-event calendar: two cache-friendly d-ary heaps (deadline
/// timers and everything else) with in-place cancellation, and one slot per
/// priority class for posted events.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/event.hpp"

namespace e2c::core {

/// Priority calendar ordered by (time, priority class, insertion sequence).
///
/// The insertion sequence is the tiebreaker of last resort, which makes the
/// processing order a deterministic function of the schedule() call order —
/// the property E2C's replay/step debugging relies on. The key comparison is
/// a strict total order, so the pop sequence is independent of the heap's
/// internal layout: any correct heap produces the bit-identical event order
/// the run-digest tests pin down.
///
/// Implementation: two 4-ary min-heaps ("lanes") of small key nodes over one
/// slab of fixed-size slots that own the payloads (label + inline callback).
/// Deadline checks get a lane of their own: they are the one class whose
/// pending count grows with the batch queue (one timer per queued task) and
/// the one class that is mostly cancelled, so keeping them apart keeps the
/// arrival/completion/scheduler heap shallow. pop() takes the lower of the
/// two roots under the same key compare, so the pop order is that of one
/// heap. Slots are recycled through a free list — no per-event allocation
/// once the slab reached the run's in-system high-water mark. Each slot
/// records its node's index in its lane, so cancel() removes the node in
/// place (O(log n): the lane's last node fills the hole and sifts up or
/// down) and the heaps only ever hold pending events.
///
/// Posted events (post()) take a third path. They are the events the model
/// layer never cancels and keeps at most one of per class pending: the next
/// arrival of the shared-trace cursor and the next scheduler round. Each
/// priority class has one slot beside the two heaps, so such an event costs
/// a key and a copy, not a sift. A posted event draws its sequence number
/// from the same counter as schedule(), and pop()/peek()/next_time() take
/// the lowest key over both heap roots and the occupied slots, so the pop
/// order is exactly the one scheduling the same events would give. When a
/// class is posted twice, the later-keyed of the two events moves into its
/// heap under the key it already holds.
///
/// Event ids encode their own slot reference — (generation << 32) |
/// (slot + 1), never kNoEvent — so cancel() decodes and validates in O(1)
/// with zero auxiliary lookup structure (the id→slot hash map this replaced
/// cost an allocation-heavy insert+erase per event); the generation bump on
/// every release rejects ids of events that already fired or were cancelled.
class EventQueue {
 public:
  /// Inserts an event; returns its unique id (never kNoEvent).
  EventId schedule(SimTime time, EventPriority priority, EventLabel label, EventFn fn);

  /// Inserts an event that is never cancelled and has no id (see the class
  /// comment). Its place in the pop order is the one schedule() would give
  /// it; O(1) while it is the only posted event of its class.
  void post(SimTime time, EventPriority priority, EventLabel label, EventFn fn);

  /// Removes a pending event. Returns false if the id is unknown or the
  /// event already fired. O(log n) in the event's lane.
  bool cancel(EventId id);

  /// Time of the earliest pending event, or nullopt when empty.
  [[nodiscard]] std::optional<SimTime> next_time() const noexcept;

  /// Metadata of the earliest pending event without removing it (the label
  /// is materialized — this is the step-mode UI path, not the hot path).
  /// The id of a posted event is kNoEvent.
  [[nodiscard]] std::optional<EventRecord> peek() const;

  /// What the engine consumes of a popped event: its time and callback.
  /// Ids and labels are read through peek() before the pop.
  struct DueEvent {
    SimTime time = 0.0;
    EventFn fn;
  };

  /// Removes the earliest pending event and returns its time and callback.
  /// Requires !empty().
  [[nodiscard]] DueEvent pop();

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept {
    return lanes_[kMainLane].size() + lanes_[kDeadlineLane].size() +
           static_cast<std::size_t>(std::popcount(posted_mask_));
  }

  /// True when no events are pending.
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Discards all pending events (used by reset).
  void clear() noexcept;

 private:
  static constexpr std::size_t kArity = 4;

  /// One heap element: the full ordering key plus a reference into the slot
  /// pool. Keys live in the node so sift compares never touch the (colder,
  /// payload-bearing) slots.
  ///
  /// The (time, priority, sequence) order is packed into one 128-bit
  /// integer — monotone-transformed time bits in the high half, priority
  /// then sequence in the low half — so precedes() is a single integer
  /// compare instead of a three-branch cascade. sift_down runs ~5 compares
  /// per level and dominates the pop path of large runs; the packed key is
  /// what keeps it branch-lean. The transform preserves IEEE ordering
  /// exactly (and normalizes -0.0 to +0.0, which compare equal anyway), so
  /// the pop order — and with it the run digests — is bit-identical to the
  /// field-by-field compare.
  __extension__ typedef unsigned __int128 OrderKey;  // GCC/Clang extension

  struct HeapNode {
    OrderKey key;
    SimTime time;  ///< kept unpacked: next_time()/pop() read it verbatim
    std::uint32_t slot;

    [[nodiscard]] bool precedes(const HeapNode& other) const noexcept {
      return key < other.key;
    }
  };
  static_assert(sizeof(HeapNode) == 32, "two heap nodes per cache line");

  /// Sequence bits below the priority byte; 2^56 events is centuries of
  /// simulated work, and schedule() checks the bound anyway.
  static constexpr unsigned kPriorityShift = 56;
  static constexpr std::uint64_t kMaxSequence = std::uint64_t{1} << kPriorityShift;

  [[nodiscard]] static OrderKey make_key(SimTime time, EventPriority priority,
                                         std::uint64_t sequence) noexcept;
  [[nodiscard]] static EventPriority priority_of(OrderKey key) noexcept {
    return static_cast<EventPriority>(static_cast<std::uint64_t>(key) >> kPriorityShift);
  }
  /// Hands out the next insertion sequence number.
  [[nodiscard]] std::uint64_t take_sequence();

  /// Payload storage. The generation is bumped on every release, so ids
  /// handed out for an earlier use of the slot no longer match it.
  struct Slot {
    EventId id = kNoEvent;
    std::uint32_t generation = 0;
    std::uint32_t position = 0;  ///< index of the slot's node in its lane
    bool live = false;
    std::uint8_t lane = 0;
    EventLabel label;
    EventFn fn;
  };
  static_assert(sizeof(Slot) == 128, "slot bookkeeping fits the padding before fn");

  /// A posted event waiting in its class's slot.
  struct Posted {
    OrderKey key;
    SimTime time;
    EventLabel label;
    EventFn fn;
  };

  static constexpr std::size_t kMainLane = 0;
  static constexpr std::size_t kDeadlineLane = 1;
  /// front() codes below this are lanes; kPostedFront + c is the slot of
  /// priority class c.
  static constexpr std::size_t kPostedFront = 2;
  static constexpr std::size_t kClasses = static_cast<std::size_t>(EventPriority::kControl) + 1;
  using Lane = std::vector<HeapNode>;

  /// Where the earliest pending event is: a lane or a posted slot (see
  /// kPostedFront). Requires !empty().
  [[nodiscard]] std::size_t front() const noexcept;
  /// Puts an event into the heap of its class under \p key; returns its id,
  /// or kNoEvent for a posted event (\p cancellable false).
  EventId insert(OrderKey key, SimTime time, EventLabel label, EventFn fn, bool cancellable);
  /// Frees the root slot of \p lane and unlinks its node; returns the node.
  /// The slot's payload stays readable until the next schedule().
  HeapNode take_root(std::size_t lane);
  /// Marks a slot free and bumps its generation.
  void release(std::uint32_t slot_index);
  /// Removes the node at \p index of \p lane: the lane's last node fills
  /// the hole and sifts whichever way restores the heap order.
  void remove_at(std::size_t lane, std::size_t index) noexcept;
  /// Writes \p node to \p index of \p heap and records the index in its slot.
  void place(Lane& heap, std::size_t index, const HeapNode& node) noexcept {
    heap[index] = node;
    slots_[node.slot].position = static_cast<std::uint32_t>(index);
  }
  void sift_up(Lane& heap, std::size_t index) noexcept;
  void sift_down(Lane& heap, std::size_t index) noexcept;

  Lane lanes_[2];
  std::array<Posted, kClasses> posted_{};
  std::uint8_t posted_mask_ = 0;  ///< bit c set: posted_[c] holds an event
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace e2c::core
