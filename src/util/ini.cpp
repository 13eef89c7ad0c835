#include "util/ini.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace e2c::util {

namespace {
std::string strip_comment(std::string_view line) {
  // A comment starts at an unquoted '#' or ';' (values here are never quoted).
  const auto pos = line.find_first_of("#;");
  if (pos != std::string_view::npos) line = line.substr(0, pos);
  return std::string(trim(line));
}
}  // namespace

IniFile IniFile::parse(const std::string& text, const std::string& source) {
  IniFile ini;
  ini.source_ = source;
  std::string section;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    const std::string line = strip_comment(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      require_input(line.back() == ']' && line.size() > 2,
                    "INI line " + std::to_string(line_number) + ": malformed section");
      section = to_lower(trim(std::string_view(line).substr(1, line.size() - 2)));
      // A header is an entry with an empty key, which no get() asks for, so
      // has_section() sees a section that holds no pairs.
      ini.entries_.push_back(Entry{section, {}, {}, line_number, {}});
      continue;
    }
    const auto eq = line.find('=');
    require_input(eq != std::string::npos,
                  "INI line " + std::to_string(line_number) + ": expected key = value");
    std::string key = to_lower(trim(std::string_view(line).substr(0, eq)));
    std::string value{trim(std::string_view(line).substr(eq + 1))};
    require_input(!key.empty(), "INI line " + std::to_string(line_number) + ": empty key");
    ini.entries_.push_back(Entry{section, std::move(key), std::move(value), line_number, {}});
  }
  return ini;
}

void IniFile::add(std::string_view section, std::string_view key, std::string value,
                  std::string locator) {
  entries_.push_back(
      Entry{to_lower(section), to_lower(key), std::move(value), 0, std::move(locator)});
}

IniFile IniFile::load(const std::string& path) {
  return parse(read_file(path), path);
}

std::string IniFile::where(const std::string& section, const std::string& key) const {
  const std::string s = to_lower(section);
  const std::string k = to_lower(key);
  // The last assignment wins in get(), so locate that one.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->section == s && it->key == k) {
      if (!it->locator.empty()) return it->locator;
      if (source_.empty()) return "line " + std::to_string(it->line);
      return source_ + ":" + std::to_string(it->line);
    }
  }
  return section + "." + key;
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const std::string s = to_lower(section);
  const std::string k = to_lower(key);
  // Last assignment wins, as in most INI dialects.
  std::optional<std::string> value;
  for (const Entry& entry : entries_) {
    if (entry.section == s && entry.key == k) value = entry.value;
  }
  return value;
}

std::string IniFile::get_or(const std::string& section, const std::string& key,
                            const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

std::optional<double> IniFile::get_double(const std::string& section,
                                          const std::string& key) const {
  const auto value = get(section, key);
  if (!value) return std::nullopt;
  const auto parsed = parse_double(*value);
  if (!parsed) {
    throw InputError("INI: " + section + "." + key + " is not a number: '" + *value + "' (" +
                     where(section, key) + ")");
  }
  return parsed;
}

std::optional<long long> IniFile::get_int(const std::string& section,
                                          const std::string& key) const {
  const auto value = get(section, key);
  if (!value) return std::nullopt;
  const auto parsed = parse_int(*value);
  if (!parsed) {
    throw InputError("INI: " + section + "." + key + " is not an integer: '" + *value +
                     "' (" + where(section, key) + ")");
  }
  return parsed;
}

std::vector<std::string> IniFile::get_list(const std::string& section,
                                           const std::string& key) const {
  const auto value = get(section, key);
  if (!value) return {};
  std::vector<std::string> items;
  for (const std::string& field : split(*value, ',')) {
    const auto item = trim(field);
    if (!item.empty()) items.emplace_back(item);
  }
  return items;
}

bool IniFile::has_section(const std::string& section) const noexcept {
  const std::string s = to_lower(section);
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& entry) { return entry.section == s; });
}

}  // namespace e2c::util
