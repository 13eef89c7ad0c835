/// \file io_channel.hpp
/// \brief Shared checkpoint-I/O channel: fair-share bandwidth arbitration for
/// concurrent checkpoint writes and restart reads.
///
/// PR 2 charged every checkpoint a fixed wallclock cost, so recovery never
/// interfered with itself. Real shared-platform deployments (the SMURFS-style
/// interfering-checkpoints literature, ROADMAP open item 4) funnel every
/// tenant's checkpoint traffic through one burst buffer or parallel file
/// system: n concurrent transfers each progress at bandwidth/n, so a machine
/// checkpointing alone finishes in C seconds but finishes in ~n·C when n
/// machines write together.
///
/// The channel models exactly that: each checkpoint write / restart read
/// becomes a *transfer* of a fixed byte size. Whenever the set of in-flight
/// transfers changes (a transfer starts, finishes, or is cancelled by a
/// machine crash), the channel settles every active transfer's remaining
/// bytes at the old rate and re-stamps its completion event at the new rate —
/// cancel + reschedule is cheap on the calendar, which removes a cancelled
/// event in place in O(log n).
///
/// Two admission strategies (IoStrategy):
///  - selfish: every transfer is admitted immediately and fair-shares;
///  - cooperative: at most max_writers checkpoint *writes* are in flight;
///    excess writers queue FIFO and are admitted as writers drain. Restart
///    reads are never deferred — a machine holding a task hostage to be
///    polite would be strictly worse.
///
/// Determinism: active transfers are kept in begin() order and re-stamped in
/// that order, so equal-time completion events retain a platform-independent
/// insertion sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault_model.hpp"

namespace e2c::fault {

/// Handle for an in-flight (or queued) transfer; used for cancellation.
using TransferId = std::uint64_t;

/// Reserved id meaning "no transfer".
inline constexpr TransferId kNoTransfer = 0;

/// The shared checkpoint-I/O channel. One instance per simulation; machines
/// route checkpoint writes and restart reads through it when configured.
/// Not thread-safe (one engine per thread).
class IoChannel {
 public:
  /// What a transfer moves over the channel.
  enum class TransferKind : std::uint8_t {
    kCheckpointWrite,  ///< persisting a checkpoint image
    kRestartRead,      ///< reloading the last checkpoint image
  };

  /// \param engine the simulation's engine (events are scheduled on it).
  /// \param config validated I/O configuration (config.enabled must be true).
  /// \param checkpoint_cost / restart_cost the fixed-path costs, used to
  ///        derive transfer sizes when the config leaves bytes at 0.
  IoChannel(core::Engine& engine, const IoConfig& config, double checkpoint_cost,
            double restart_cost);

  IoChannel(const IoChannel&) = delete;
  IoChannel& operator=(const IoChannel&) = delete;

  /// Starts a checkpoint write for \p task. Under kCooperative the transfer
  /// may be deferred (queued) until a writer slot frees; \p on_complete fires
  /// when the full image has been written. \p machine_name is not owned and
  /// must outlive the transfer (a machine's name string).
  TransferId begin_checkpoint_write(std::uint64_t task, const char* machine_name,
                                    std::function<void()> on_complete);

  /// Starts a restart read for \p task. Never deferred.
  TransferId begin_restart_read(std::uint64_t task, const char* machine_name,
                                std::function<void()> on_complete);

  /// Cancels an in-flight or queued transfer (machine crash / task removal).
  /// The completion callback is dropped. Returns false when the transfer
  /// already completed or is unknown.
  bool cancel(TransferId id);

  /// Returns the channel to its initial empty state. Requires the owning
  /// engine to have been rewound (pending transfer events are gone with it).
  void reset();

  /// Transfers currently moving bytes.
  [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }

  /// Cooperative writers waiting for an admission slot.
  [[nodiscard]] std::size_t waiting_count() const noexcept { return waiting_.size(); }

  /// Completed checkpoint writes / restart reads since construction or reset.
  [[nodiscard]] std::uint64_t writes_completed() const noexcept { return writes_done_; }
  [[nodiscard]] std::uint64_t reads_completed() const noexcept { return reads_done_; }

  /// Largest number of simultaneously active transfers observed — the
  /// contention headline for reports.
  [[nodiscard]] std::size_t peak_concurrent() const noexcept { return peak_active_; }

  /// Wallclock a write/read takes with the channel to itself; machines use
  /// these for ready-time projections (actual completions depend on load).
  [[nodiscard]] double uncontended_write_seconds() const noexcept {
    return checkpoint_bytes_ / config_.bandwidth;
  }
  [[nodiscard]] double uncontended_read_seconds() const noexcept {
    return restart_bytes_ / config_.bandwidth;
  }

  /// The configuration this channel was built from.
  [[nodiscard]] const IoConfig& config() const noexcept { return config_; }

 private:
  struct Transfer {
    TransferId id = kNoTransfer;
    TransferKind kind = TransferKind::kCheckpointWrite;
    std::uint64_t task = 0;
    const char* machine = "";  ///< not owned; outlives the transfer
    double remaining_bytes = 0.0;
    core::EventId event = core::kNoEvent;
    std::function<void()> on_complete;
  };

  TransferId begin(TransferKind kind, std::uint64_t task, const char* machine_name,
                   std::function<void()> on_complete);
  /// Drains progress since the last settle at the pre-change rate.
  void settle(core::SimTime now);
  /// Moves queued cooperative writers into the active set while slots remain.
  void admit_waiting();
  /// Cancels and reschedules every active transfer's completion at the
  /// post-change fair-share rate.
  void restamp(core::SimTime now);
  void on_transfer_done(TransferId id);
  [[nodiscard]] std::size_t active_writers() const noexcept;

  core::Engine& engine_;
  IoConfig config_;
  double checkpoint_bytes_ = 0.0;  ///< resolved transfer size per write
  double restart_bytes_ = 0.0;     ///< resolved transfer size per read
  std::vector<Transfer> active_;   ///< in begin() order (determinism)
  std::vector<Transfer> waiting_;  ///< FIFO of deferred cooperative writers
  core::SimTime last_settle_ = 0.0;
  TransferId next_id_ = 1;
  std::uint64_t writes_done_ = 0;
  std::uint64_t reads_done_ = 0;
  std::size_t peak_active_ = 0;
};

}  // namespace e2c::fault
