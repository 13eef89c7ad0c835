#include "core/engine.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace e2c::core {

SimTime Engine::checked_time(SimTime time) const {
  e2c::require(time >= now_ - kTimeEpsilon, [&] {
    return "Engine: event scheduled in the past: t=" + std::to_string(time) +
           " now=" + std::to_string(now_);
  });
  // Clamp tiny negative drift so the calendar never goes backwards.
  return std::max(time, now_);
}

EventId Engine::schedule_at(SimTime time, EventPriority priority, EventLabel label,
                            EventFn fn) {
  return queue_.schedule(checked_time(time), priority, label, std::move(fn));
}

void Engine::post_at(SimTime time, EventPriority priority, EventLabel label, EventFn fn) {
  queue_.post(checked_time(time), priority, label, std::move(fn));
}

EventId Engine::schedule_in(SimTime delay, EventPriority priority, EventLabel label,
                            EventFn fn) {
  e2c::require(delay >= 0.0, "Engine::schedule_in negative delay");
  return schedule_at(now_ + delay, priority, label, std::move(fn));
}

bool Engine::cancel(EventId id) { return queue_.cancel(id); }

void Engine::dispatch_one() {
  auto popped = queue_.pop();
  now_ = popped.time;
  ++processed_;
  if (popped.fn) popped.fn();
}

bool Engine::step() {
  if (queue_.empty()) return false;
  dispatch_one();
  return true;
}

void Engine::run_until(SimTime horizon) {
  while (!queue_.empty() && *queue_.next_time() <= horizon) dispatch_one();
  if (now_ < horizon && horizon < kTimeInfinity) now_ = horizon;
}

void Engine::run() {
  while (!queue_.empty()) dispatch_one();
}

void Engine::reset() {
  queue_.clear();
  now_ = 0.0;
  processed_ = 0;
}

}  // namespace e2c::core
