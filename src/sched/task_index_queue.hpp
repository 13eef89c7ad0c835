/// \file task_index_queue.hpp
/// \brief The batch queue: per-type, arrival-ordered intrusive lists over
/// dense task indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/large_buffer.hpp"
#include "workload/task.hpp"

namespace e2c::sched {

/// The batch queue's backing structure. Tasks are dense indices 0..n-1 into
/// a bound definitions span; each enqueued task owns one node of a recycled
/// pool, linked into the doubly-linked list of its task type, and the node
/// carries an insertion sequence number. push_back/erase/contains are O(1),
/// a type's list is in arrival (insertion) order, and the sequence numbers
/// order tasks across types — so a mapper whose scores depend only on the
/// task type (ELARE/FELARE) walks a few short per-type lists instead of the
/// whole queue, while the full arrival order is a merge by sequence.
///
/// Per task row the queue keeps only a 4-byte node handle (kNil: not
/// queued). The links and the sequence number live in the pool, whose
/// erased nodes go on a free list and are reused by later pushes, so it
/// grows to the peak queue length, not to the trace length.
///
/// A task index may re-enter the queue after leaving it (fault retries); it
/// then takes a fresh node and sequence number and sorts last, exactly as
/// the old single arrival-ordered list appended it at the tail.
class TaskIndexQueue {
 public:
  /// List terminator returned by head() and next(), and the node handle of
  /// a task that is not queued.
  static constexpr std::int32_t kNil = -1;

  /// Binds the queue to \p defs (task index i is defs[i]) with one list per
  /// task type in [0, type_count), and empties it. The pool keeps its
  /// capacity for the next run.
  void reset(std::span<const workload::TaskDef> defs, std::size_t type_count) {
    require(defs.size() <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
            "TaskIndexQueue::reset: too many tasks");
    defs_ = defs;
    node_of_.clear();
    util::reserve_large(node_of_, defs.size());
    node_of_.assign(defs.size(), kNil);
    pool_.clear();
    free_ = kNil;
    lists_.assign(type_count, List{});
    live_types_.clear();
    next_seq_ = 1;
    size_ = 0;
    ordered_.clear();
    ordered_valid_ = true;
  }

  /// Appends \p index at the tail of its type's list. Requires index < the
  /// bound task count, a type below type_count() and not already enqueued.
  void push_back(std::size_t index) {
    require(index < node_of_.size(), "TaskIndexQueue::push_back: index out of range");
    require(node_of_[index] == kNil, "TaskIndexQueue::push_back: index already enqueued");
    const hetero::TaskTypeId type = defs_[index].type;
    require(type < lists_.size(), "TaskIndexQueue::push_back: task type out of range");
    // The merge orders by sequence number, so the counter may not wrap:
    // 2^32 - 1 pushes per reset() is the queue's capacity.
    require(next_seq_ != 0, "TaskIndexQueue::push_back: sequence numbers exhausted");
    List& list = lists_[type];
    // At most one node per task row is live, so the pool never outgrows the
    // int32 handles reset() checked the row count against.
    std::int32_t node = free_;
    if (node != kNil) {
      free_ = pool_[static_cast<std::size_t>(node)].next;
    } else {
      node = static_cast<std::int32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[static_cast<std::size_t>(node)] =
        Node{static_cast<std::uint32_t>(index), list.tail, kNil, next_seq_++};
    if (list.tail != kNil) {
      pool_[static_cast<std::size_t>(list.tail)].next = node;
    } else {
      list.head = node;
    }
    list.tail = node;
    node_of_[index] = node;
    if (list.count++ == 0) {
      list.live_slot = live_types_.size();
      live_types_.push_back(type);
    }
    ++size_;
    ordered_valid_ = false;
  }

  /// Unlinks \p index and returns its node to the free list; returns false
  /// when it is not in the queue.
  bool erase(std::size_t index) {
    if (!contains(index)) return false;
    List& list = lists_[defs_[index].type];
    const std::int32_t node = node_of_[index];
    Node& unlinked = pool_[static_cast<std::size_t>(node)];
    if (unlinked.prev != kNil) {
      pool_[static_cast<std::size_t>(unlinked.prev)].next = unlinked.next;
    } else {
      list.head = unlinked.next;
    }
    if (unlinked.next != kNil) {
      pool_[static_cast<std::size_t>(unlinked.next)].prev = unlinked.prev;
    } else {
      list.tail = unlinked.prev;
    }
    unlinked.next = free_;
    free_ = node;
    node_of_[index] = kNil;
    if (--list.count == 0) {
      const hetero::TaskTypeId moved = live_types_.back();
      live_types_[list.live_slot] = moved;
      lists_[moved].live_slot = list.live_slot;
      live_types_.pop_back();
    }
    --size_;
    ordered_valid_ = false;
    return true;
  }

  [[nodiscard]] bool contains(std::size_t index) const noexcept {
    return index < node_of_.size() && node_of_[index] != kNil;
  }

  /// The node task \p index occupies while queued, kNil otherwise.
  [[nodiscard]] std::int32_t node_of(std::size_t index) const { return node_of_[index]; }

  /// Nodes the pool holds, live or free: the peak queue length since reset().
  [[nodiscard]] std::size_t pool_size() const noexcept { return pool_.size(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Number of per-type lists.
  [[nodiscard]] std::size_t type_count() const noexcept { return lists_.size(); }

  /// The task types with at least one enqueued task, in no particular
  /// order: what a per-type scan visits, however many types exist.
  [[nodiscard]] std::span<const hetero::TaskTypeId> live_types() const noexcept {
    return live_types_;
  }

  /// Enqueued tasks of \p type.
  [[nodiscard]] std::size_t count(hetero::TaskTypeId type) const { return lists_[type].count; }

  /// Node of the oldest enqueued task of \p type, or kNil.
  [[nodiscard]] std::int32_t head(hetero::TaskTypeId type) const { return lists_[type].head; }

  /// Node of the task enqueued after \p node in the same type's list, or kNil.
  [[nodiscard]] std::int32_t next(std::int32_t node) const {
    return pool_[static_cast<std::size_t>(node)].next;
  }

  /// Insertion sequence number of the task at \p node (lower = earlier).
  [[nodiscard]] std::uint32_t seq(std::int32_t node) const {
    return pool_[static_cast<std::size_t>(node)].seq;
  }

  /// Definition of the task at \p node.
  [[nodiscard]] const workload::TaskDef& def(std::int32_t node) const {
    return defs_[pool_[static_cast<std::size_t>(node)].row];
  }

  /// Every enqueued task, oldest first: the per-type lists merged by
  /// sequence number. Built on first use after a push/erase and cached, so
  /// callers that never ask for the full order never pay for it. Like every
  /// other member it must not be called concurrently with any other.
  [[nodiscard]] const std::vector<const workload::TaskDef*>& ordered() const {
    if (!ordered_valid_) {
      merge();
      ordered_valid_ = true;
    }
    return ordered_;
  }

 private:
  /// One queued task: its row, its neighbours in its type's list and its
  /// sequence number. A free node links the free list through `next`.
  struct Node {
    std::uint32_t row = 0;
    std::int32_t prev = kNil;
    std::int32_t next = kNil;
    std::uint32_t seq = 0;
  };
  struct List {
    std::int32_t head = kNil;
    std::int32_t tail = kNil;
    std::size_t count = 0;
    std::size_t live_slot = 0;  ///< position in live_types_ while count > 0
  };
  /// Rebuilds ordered_ by merging the live types' lists, one cursor (next
  /// node) per list, always taking the cursor with the lowest sequence
  /// number. The linear scan for it is O(size x live lists); the benchmark
  /// workloads merge at most a few dozen lists, where a heap saves nothing.
  void merge() const {
    ordered_.clear();
    ordered_.reserve(size_);
    cursors_.clear();
    for (const hetero::TaskTypeId type : live_types_) cursors_.push_back(lists_[type].head);
    while (!cursors_.empty()) {
      std::size_t oldest = 0;
      for (std::size_t c = 1; c < cursors_.size(); ++c) {
        if (seq(cursors_[c]) < seq(cursors_[oldest])) oldest = c;
      }
      ordered_.push_back(&def(cursors_[oldest]));
      cursors_[oldest] = next(cursors_[oldest]);
      if (cursors_[oldest] == kNil) {
        cursors_[oldest] = cursors_.back();
        cursors_.pop_back();
      }
    }
  }

  std::span<const workload::TaskDef> defs_;
  std::vector<std::int32_t> node_of_;  ///< per task row; kNil = not enqueued
  std::vector<Node> pool_;
  std::int32_t free_ = kNil;  ///< head of the free-node list
  std::vector<List> lists_;
  std::vector<hetero::TaskTypeId> live_types_;
  std::uint32_t next_seq_ = 1;
  std::size_t size_ = 0;
  // Arrival-order cache behind ordered(); the merge cursors are kept only
  // to recycle their capacity.
  mutable std::vector<const workload::TaskDef*> ordered_;
  mutable std::vector<std::int32_t> cursors_;
  mutable bool ordered_valid_ = true;
};

}  // namespace e2c::sched
