/// \file ini.hpp
/// \brief Minimal INI-style config parser for experiment files.
///
/// Grammar: `[section]` headers, `key = value` pairs, `#`/`;` comments
/// (full-line or trailing), blank lines ignored. Keys are case-insensitive
/// and scoped to their section; values keep internal whitespace. This is the
/// no-programming-input configuration path for the experiment harness —
/// the CLI counterpart of filling in the GUI's dialogs.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2c::util {

/// A parsed INI document.
class IniFile {
 public:
  /// Parses INI text. Throws e2c::InputError on malformed lines (a line
  /// that is neither a section, a pair, a comment, nor blank). \p source is
  /// the display name (usually a path) used by where() locators.
  [[nodiscard]] static IniFile parse(const std::string& text,
                                     const std::string& source = {});

  /// Reads and parses a file. Throws e2c::IoError / e2c::InputError.
  [[nodiscard]] static IniFile load(const std::string& path);

  /// Appends section.key = \p value as if it were the document's next line,
  /// so it overrides any earlier assignment, and creates the section if it
  /// is new. The value is stored verbatim (no comment stripping or
  /// trimming), and where() reports \p locator for it: e.g. the
  /// command-line flag that supplied the value.
  void add(std::string_view section, std::string_view key, std::string value,
           std::string locator);

  /// Value of section.key, if present (case-insensitive lookup).
  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;

  /// Value or \p fallback.
  [[nodiscard]] std::string get_or(const std::string& section, const std::string& key,
                                   const std::string& fallback) const;

  /// Numeric accessors; throw e2c::InputError, citing where(), when present
  /// but malformed.
  [[nodiscard]] std::optional<double> get_double(const std::string& section,
                                                 const std::string& key) const;
  [[nodiscard]] std::optional<long long> get_int(const std::string& section,
                                                 const std::string& key) const;

  /// Splits a comma-separated value into trimmed items; empty when absent.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& section,
                                                  const std::string& key) const;

  /// Human-readable locator of section.key's defining line (the last
  /// assignment, which is the one get() returns): the locator given to
  /// add(), "path:N" when the file was loaded from disk, "line N" for
  /// in-memory text, or "section.key" when the pair does not exist. For
  /// validation error messages.
  [[nodiscard]] std::string where(const std::string& section,
                                  const std::string& key) const;

  /// True if the section exists (even if empty).
  [[nodiscard]] bool has_section(const std::string& section) const noexcept;

 private:
  struct Entry {
    std::string section;
    std::string key;
    std::string value;
    std::size_t line = 0;
    std::string locator;  ///< where() text; empty means format the line
  };
  std::vector<Entry> entries_;  ///< pairs and section headers, in file order
  std::string source_;  ///< display name for where(); empty for in-memory text
};

}  // namespace e2c::util
