/// \file event_trace.hpp
/// \brief Event trace of a run, recorded by stepping the engine the way the
/// step-mode "Increment" button does.
///
/// Each step first reads Engine::peek_next() and then calls Engine::step(),
/// so every record describes an event just before its callback runs. Tests
/// use the trace to assert ordering invariants and to dump a run as CSV.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"

namespace e2c::test {

/// The events an engine processed while a test stepped it, oldest first.
class EventTrace {
 public:
  /// Steps \p engine until its calendar is empty, recording each event: the
  /// recording form of Engine::run().
  void record(core::Engine& engine) { record_until(engine, core::kTimeInfinity); }

  /// Steps \p engine through every event at or before \p horizon, recording
  /// each, then calls run_until(horizon) to move the clock: the recording
  /// form of Engine::run_until().
  void record_until(core::Engine& engine, core::SimTime horizon);

  [[nodiscard]] const std::vector<core::EventRecord>& records() const noexcept {
    return records_;
  }

  /// Forgets all recorded events.
  void clear() noexcept { records_.clear(); }

  /// Renders the trace as CSV rows: time,priority,label.
  [[nodiscard]] std::vector<std::vector<std::string>> to_csv_rows() const;

  /// True if recorded timestamps are non-decreasing AND same-time events of
  /// the pre-scheduled classes (completion, deadline, arrival) are ordered
  /// by priority class. Those three are always inserted strictly before
  /// their fire time, so the calendar guarantees their relative order;
  /// schedule/control events may legitimately be injected mid-timestamp by
  /// a handler (e.g. a machine coming online requests a scheduler pass at
  /// the same instant) and are exempt from the priority check.
  [[nodiscard]] bool is_monotonic() const noexcept;

 private:
  std::vector<core::EventRecord> records_;
};

}  // namespace e2c::test
