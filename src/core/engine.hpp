/// \file engine.hpp
/// \brief The discrete-event engine: clock, calendar, stepping.
///
/// The engine is deliberately model-agnostic: machines, schedulers and
/// workloads (higher layers) interact with it only through schedule()/
/// cancel() and the clock. The step-mode visualizer reads the next event
/// through peek_next() and advances with step().
#pragma once

#include <cstdint>
#include <optional>

#include "core/event.hpp"
#include "core/event_queue.hpp"

namespace e2c::core {

/// Discrete-event simulation engine.
///
/// Not thread-safe: one engine per thread. Experiment replications each own
/// a private engine (C++ Core Guidelines CP.2/CP.3 — no shared mutable
/// state between parallel replications).
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules \p fn at absolute time \p time. Requires time >= now().
  /// The label is lazy (see EventLabel): pass a literal or a cheap piece-wise
  /// label; it is only formatted when the step UI reads it.
  EventId schedule_at(SimTime time, EventPriority priority, EventLabel label, EventFn fn);

  /// Schedules an event nobody will cancel, without an id: the next arrival
  /// of a trace cursor, the next scheduler round. It pops exactly where
  /// schedule_at() would have put it, and costs no heap operation while it
  /// is the only posted event of its priority class (see EventQueue::post).
  /// Requires time >= now().
  void post_at(SimTime time, EventPriority priority, EventLabel label, EventFn fn);

  /// Schedules \p fn at now() + delay. Requires delay >= 0.
  EventId schedule_in(SimTime delay, EventPriority priority, EventLabel label, EventFn fn);

  /// Cancels a pending event; false if already fired or unknown.
  bool cancel(EventId id);

  /// Processes exactly one event if any is pending. This is the backing of
  /// the GUI "Increment" button. Returns true if an event was processed.
  bool step();

  /// Runs until the calendar is empty or \p horizon is passed. Events at
  /// exactly \p horizon are processed.
  void run_until(SimTime horizon);

  /// Runs until the calendar is empty.
  void run();

  /// Clears the calendar and rewinds the clock to zero (GUI "Reset"; the
  /// model layer rebuilds its state and reschedules arrivals afterwards).
  void reset();

  /// Number of events processed since construction/reset.
  [[nodiscard]] std::uint64_t processed_count() const noexcept { return processed_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Metadata of the next pending event (for the step-mode UI), if any. A
  /// posted event's id is kNoEvent.
  [[nodiscard]] std::optional<EventRecord> peek_next() const { return queue_.peek(); }

 private:
  /// Checks that \p time is not in the past and clamps tiny drift to now().
  [[nodiscard]] SimTime checked_time(SimTime time) const;
  /// Pops the earliest event, advances the clock to it and runs its callback.
  void dispatch_one();

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t processed_ = 0;
};

}  // namespace e2c::core
