/// \file csv.hpp
/// \brief RFC-4180-style CSV reading and writing.
///
/// E2C's file formats (EET matrix, workload trace, reports) are CSV, matching
/// the original simulator so that course material and student spreadsheets
/// interoperate. The parser supports quoted fields, embedded commas/quotes/
/// newlines, and both LF and CRLF line endings.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace e2c::util {

/// A zero-copy CSV document: the raw text is read once into an owned
/// contiguous buffer and every field is a std::string_view into it. Only
/// fields that need unescaping (embedded "" quotes, swallowed '\r') are
/// materialized, into a stable side arena. Each row is tagged with the
/// 1-based source line it started on, so loaders can point `path:line`
/// InputErrors at the exact spot in the file the user has open.
///
/// Views stay valid for the lifetime of the document (moves included: the
/// buffer and arena live behind stable allocations).
class CsvDoc {
 public:
  CsvDoc() = default;

  /// Number of (non-blank) rows.
  [[nodiscard]] std::size_t row_count() const noexcept {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }

  /// True when no rows were parsed.
  [[nodiscard]] bool empty() const noexcept { return row_count() == 0; }

  /// Fields of row \p r, in column order.
  [[nodiscard]] std::span<const std::string_view> row(std::size_t r) const noexcept {
    return {fields_.data() + row_offsets_[r], row_offsets_[r + 1] - row_offsets_[r]};
  }

  /// File path when read from disk; empty for in-memory text.
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

  /// Locator for error messages: "path:line" when the document came from a
  /// file, "line N" for in-memory text.
  [[nodiscard]] std::string where(std::size_t row_index) const;

 private:
  friend CsvDoc parse_csv_doc(std::string text, std::string source);

  std::unique_ptr<std::string> text_;  ///< stable storage the views point into
  /// Escaped fields materialized out of line; deque keeps element addresses
  /// stable as it grows.
  std::unique_ptr<std::deque<std::string>> arena_;
  std::vector<std::string_view> fields_;
  /// Prefix offsets into fields_: row r spans [row_offsets_[r], row_offsets_[r+1]).
  std::vector<std::uint32_t> row_offsets_;
  /// 1-based source line each row starts on.
  std::vector<std::size_t> row_lines_;
  std::string source_;
};

/// Parses CSV text into a zero-copy document (takes ownership of the text).
/// Throws e2c::InputError on unterminated quotes. A trailing newline does not
/// create an empty final row; completely blank lines are skipped (students'
/// hand-edited files often contain them). \p source, when given, names the
/// origin (file path) in error locators.
[[nodiscard]] CsvDoc parse_csv_doc(std::string text, std::string source = {});

/// Reads a CSV file once into a contiguous buffer and parses it zero-copy.
/// Throws e2c::IoError if unreadable, e2c::InputError on malformed content.
[[nodiscard]] CsvDoc read_csv_doc(const std::string& path);

/// Quotes a field if it contains a comma, quote, or newline.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Serializes rows to CSV text (LF line endings, fields escaped as needed).
[[nodiscard]] std::string to_csv(const std::vector<std::vector<std::string>>& rows);

/// Writes rows to a file. Throws e2c::IoError on failure.
void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace e2c::util
