/// \file event.hpp
/// \brief Event identity, ordering and metadata for the discrete-event core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "core/sim_time.hpp"

namespace e2c::core {

/// Ordering class for events that share a timestamp. Lower values execute
/// first. The order encodes E2C's simulation semantics:
///  - a task completing exactly at its deadline counts as completed, so
///    completions run before deadline checks;
///  - deadline checks run before new arrivals so a stale task never occupies
///    a queue slot an arriving task could use;
///  - scheduler invocations run after the arrivals that triggered them.
enum class EventPriority : std::uint8_t {
  kCompletion = 0,   ///< task finishes executing on a machine
  kDeadline = 1,     ///< deadline check (cancel / drop)
  kArrival = 2,      ///< task arrives into the batch queue
  kSchedule = 3,     ///< scheduler invocation
  kControl = 4,      ///< bookkeeping (transfers, failures, retries, autoscaling)
};

/// Display name of a priority class ("completion", "arrival", ...).
[[nodiscard]] const char* event_priority_name(EventPriority priority) noexcept;

/// Unique handle for a scheduled event; used for cancellation.
using EventId = std::uint64_t;

/// Reserved id meaning "no event".
inline constexpr EventId kNoEvent = 0;

/// Callback executed when an event fires. Runs with the engine clock already
/// advanced to the event's time.
///
/// A fixed-capacity inline closure instead of std::function: event callbacks
/// are small captures (a `this` pointer plus a couple of scalars), and the
/// calendar schedules millions of them per large run. Storing the closure
/// in-place inside the event slot removes the per-event heap allocation and
/// makes the whole slot trivially copyable, so the slab allocator can recycle
/// slots with plain byte copies. Closures must be trivially copyable and
/// destructible and fit kInlineSize — violations fail at compile time, which
/// is the contract: an event callback that wants to own heap state should
/// capture a pointer into model-layer storage instead.
class EventFn {
 public:
  /// Maximum closure size: a vtable-free `this` + several scalars with room
  /// to spare (the largest closure in the tree captures this + 2 doubles).
  static constexpr std::size_t kInlineSize = 48;

  constexpr EventFn() noexcept = default;
  constexpr EventFn(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  EventFn(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineSize,
                  "EventFn closure too large: capture a pointer to model-layer "
                  "state instead of copying it into the event");
    static_assert(std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
                  "EventFn closures must be trivially copyable/destructible so "
                  "event slots can be recycled with byte copies");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* storage) { (*static_cast<Fn*>(storage))(); };
  }

  EventFn& operator=(std::nullptr_t) noexcept {
    invoke_ = nullptr;
    return *this;
  }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void (*invoke_)(void*) = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize] = {};
};

/// Lazy event label: a small POD of string-literal pieces plus an optional
/// number, materialized into a std::string only when someone (the step-mode
/// visualizer through Engine::peek_next) actually asks for the text.
///
/// Eagerly formatted labels cost one heap-allocated std::string per event —
/// millions per large run — while headless sweeps never read them. The
/// pieces are NOT owned: callers pass string literals or pointers into
/// storage that outlives the event (a machine's name, the simulation's
/// cached policy name).
class EventLabel {
 public:
  constexpr EventLabel() noexcept = default;

  /// A fixed label ("autoscaler tick"). Implicit so literal call sites stay
  /// as cheap to write as the old std::string overloads were.
  constexpr EventLabel(const char* text) noexcept : prefix_(text) {}  // NOLINT

  /// "<prefix><number>" with optional trailing pieces, covering every label
  /// shape the model layer emits: "arrival task=7",
  /// "complete task=7 machine=gpu", ...
  constexpr EventLabel(const char* prefix, std::uint64_t number, const char* mid = "",
                       const char* text = "") noexcept
      : prefix_(prefix), mid_(mid), text_(text), number_(number), has_number_(true) {}

  /// "<prefix><text><suffix>" without a number: "invoke scheduler (FCFS)".
  [[nodiscard]] static constexpr EventLabel join(const char* prefix, const char* text,
                                                const char* suffix = "") noexcept {
    EventLabel label(prefix);
    label.mid_ = text;
    label.text_ = suffix;
    return label;
  }

  /// Materializes the label text (the only place that allocates).
  [[nodiscard]] std::string str() const;

 private:
  const char* prefix_ = "";
  const char* mid_ = "";
  const char* text_ = "";
  std::uint64_t number_ = 0;
  bool has_number_ = false;
};

/// Immutable metadata describing one pending event, as Engine::peek_next
/// returns it to the step-mode visualizer. The label is materialized at
/// record-construction time (see EventLabel).
struct EventRecord {
  EventId id = kNoEvent;
  SimTime time = 0.0;
  EventPriority priority = EventPriority::kControl;
  std::string label;  ///< human-readable description, e.g. "arrival task=7"
};

}  // namespace e2c::core
