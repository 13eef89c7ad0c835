#include "support/owned_queue.hpp"

#include <utility>

namespace e2c::test {

OwnedQueue::OwnedQueue(const hetero::EetMatrix& eet, std::vector<workload::TaskDef> tasks)
    : tasks_(std::move(tasks)) {
  index_.reset(tasks_, eet.task_type_count());
  for (std::size_t i = 0; i < tasks_.size(); ++i) index_.push_back(i);
}

}  // namespace e2c::test
