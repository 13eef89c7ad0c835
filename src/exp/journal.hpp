/// \file journal.hpp
/// \brief Crash-safe sweep journal: append-only per-cell records, fsync'd.
///
/// Format (line-oriented text; binary payloads hex-armored):
///
///   e2c-sweep-journal v2 digest=<16 hex> cells=<N>
///   cell <slot> <hex of encode_cell payload>
///   cell <slot> <hex>
///   ...
///
/// `slot` is the cell's index in (policy-major, intensity-minor) order;
/// `digest` is exp::spec_digest of the sweep, so --resume refuses a journal
/// written by a different sweep. Every append is one write() followed by
/// fsync(), so a SIGKILL'd invocation leaves at worst one torn final line —
/// the reader drops a malformed last line and keeps everything before it.
/// When a slot appears more than once (a resumed run re-ran a failed cell),
/// the last record wins. The version moves with the cell codec's: a journal
/// of another version is refused at its header, naming that version.
/// v2 records are codec-v2 cells, one fixed-size record per run, so a
/// line's length does not grow with the catalog.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "exp/experiment.hpp"

namespace e2c::exp {

/// Append handle on a sweep journal. Move-only; closes the fd on destruction.
class SweepJournal {
 public:
  /// Creates (or truncates) \p path and writes a fresh header.
  [[nodiscard]] static SweepJournal create(const std::string& path,
                                           std::uint64_t digest,
                                           std::size_t cells_total);

  /// Opens an existing journal for appending after validating its header
  /// against \p digest / \p cells_total (the --resume path). A torn final
  /// record is cut off first, so appended records start on a fresh line.
  [[nodiscard]] static SweepJournal append_to(const std::string& path,
                                              std::uint64_t digest,
                                              std::size_t cells_total);

  /// Appends one cell record: a single write() of the whole line, then
  /// fsync(). Throws e2c::IoError on failure.
  void append(std::size_t slot, const CellResult& cell);

  SweepJournal(SweepJournal&& other) noexcept;
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;
  SweepJournal& operator=(SweepJournal&&) = delete;
  ~SweepJournal();

 private:
  explicit SweepJournal(int fd) noexcept : fd_(fd) {}

  int fd_ = -1;
};

/// Everything a journal recorded. `cells` holds the last record per slot.
struct JournalContents {
  std::uint64_t digest = 0;
  std::size_t cells_total = 0;
  std::map<std::size_t, CellResult> cells;
  std::size_t intact_bytes = 0;  ///< file length without a torn final record
};

/// Parses a journal file. Throws e2c::IoError if unreadable and
/// e2c::InputError on a malformed or other-version header or a corrupt
/// interior record; a torn final record (the crash case) is dropped
/// silently.
[[nodiscard]] JournalContents read_journal(const std::string& path);

}  // namespace e2c::exp
