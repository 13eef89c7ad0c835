#include "support/event_trace.hpp"

#include "util/string_util.hpp"

namespace e2c::test {

void EventTrace::record_until(core::Engine& engine, core::SimTime horizon) {
  while (auto next = engine.peek_next()) {
    if (next->time > horizon) break;
    records_.push_back(std::move(*next));
    (void)engine.step();
  }
  engine.run_until(horizon);
}

std::vector<std::vector<std::string>> EventTrace::to_csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(records_.size() + 1);
  rows.push_back({"time", "priority", "label"});
  for (const auto& record : records_) {
    rows.push_back({util::format_fixed(record.time, 4),
                    core::event_priority_name(record.priority), record.label});
  }
  return rows;
}

bool EventTrace::is_monotonic() const noexcept {
  const auto pre_scheduled = [](core::EventPriority priority) {
    return priority <= core::EventPriority::kArrival;
  };
  for (std::size_t i = 1; i < records_.size(); ++i) {
    const auto& prev = records_[i - 1];
    const auto& curr = records_[i];
    if (curr.time < prev.time) return false;
    if (curr.time == prev.time && pre_scheduled(curr.priority) &&
        pre_scheduled(prev.priority) && curr.priority < prev.priority) {
      return false;
    }
  }
  return true;
}

}  // namespace e2c::test
