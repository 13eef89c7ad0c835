/// \file owned_queue.hpp
/// \brief Batch queues for scheduling contexts built by hand in tests and
/// benches.
#pragma once

#include <vector>

#include "hetero/eet_matrix.hpp"
#include "sched/task_index_queue.hpp"
#include "workload/task.hpp"

namespace e2c::test {

/// A batch queue that owns its tasks: copies of the definitions plus the
/// TaskIndexQueue over them, enqueued in the given order (so queue order is
/// vector order). A SchedulingContext over index() points into this object,
/// so the queue must outlive every context built over it; copy and move are
/// deleted so it cannot move out from under one.
class OwnedQueue {
 public:
  /// One per-type list for each task type of \p eet.
  OwnedQueue(const hetero::EetMatrix& eet, std::vector<workload::TaskDef> tasks);
  OwnedQueue(const OwnedQueue&) = delete;
  OwnedQueue& operator=(const OwnedQueue&) = delete;

  [[nodiscard]] const sched::TaskIndexQueue& index() const noexcept { return index_; }

 private:
  std::vector<workload::TaskDef> tasks_;
  sched::TaskIndexQueue index_;
};

}  // namespace e2c::test
