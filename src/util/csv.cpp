#include "util/csv.hpp"

#include "util/error.hpp"
#include "util/file_io.hpp"

namespace e2c::util {

std::string CsvDoc::where(std::size_t row_index) const {
  const std::size_t line = row_index < row_lines_.size() ? row_lines_[row_index] : 0;
  if (source_.empty()) return "line " + std::to_string(line);
  return source_ + ":" + std::to_string(line);
}

CsvDoc parse_csv_doc(std::string text, std::string source) {
  CsvDoc doc;
  doc.source_ = std::move(source);
  doc.text_ = std::make_unique<std::string>(std::move(text));
  const std::string& buf = *doc.text_;
  doc.row_offsets_.push_back(0);

  // The current field is tracked as a slice [field_begin, field_begin +
  // field_len) of the buffer for as long as its content is contiguous; the
  // first discontinuity (escaped quote, swallowed '\r', text around quotes)
  // demotes it to a materialized copy.
  bool in_quotes = false;
  bool field_started = false;  // row has at least one character/field marker
  bool field_empty = true;     // no content characters yet in this field
  bool simple = true;          // field is still a direct buffer slice
  std::size_t field_begin = 0;
  std::size_t field_len = 0;
  std::string scratch;
  std::size_t row_fields = 0;  // completed fields in the current row
  std::size_t line = 1;        // 1-based source line of the cursor
  std::size_t row_line = 1;    // source line the current row started on

  auto push_char = [&](char c, std::size_t pos) {
    field_empty = false;
    if (simple) {
      if (field_len == 0) {
        field_begin = pos;
        field_len = 1;
        return;
      }
      if (pos == field_begin + field_len) {
        ++field_len;
        return;
      }
      scratch.assign(buf, field_begin, field_len);
      simple = false;
    }
    scratch.push_back(c);
  };
  auto end_field = [&] {
    if (simple) {
      doc.fields_.push_back(std::string_view(buf).substr(field_begin, field_len));
    } else {
      if (!doc.arena_) doc.arena_ = std::make_unique<std::deque<std::string>>();
      doc.arena_->push_back(std::move(scratch));
      doc.fields_.push_back(doc.arena_->back());
      scratch.clear();
    }
    field_len = 0;
    field_empty = true;
    simple = true;
    field_started = true;
    ++row_fields;
  };
  auto end_row = [&] {
    end_field();
    // Skip rows that are entirely empty (blank line).
    const bool blank = row_fields == 1 && doc.fields_.back().empty();
    if (blank) {
      doc.fields_.pop_back();
    } else {
      doc.row_offsets_.push_back(static_cast<std::uint32_t>(doc.fields_.size()));
      doc.row_lines_.push_back(row_line);
    }
    row_fields = 0;
    field_started = false;
  };

  for (std::size_t i = 0; i < buf.size(); ++i) {
    const char c = buf[i];
    // A row starts at the first character after the previous row ended.
    if (row_fields == 0 && field_empty && !field_started) row_line = line;
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < buf.size() && buf[i + 1] == '"') {
          push_char('"', i);
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        push_char(c, i);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        // Swallow; the following '\n' (if any) ends the row.
        break;
      case '\n':
        end_row();
        ++line;
        break;
      default:
        push_char(c, i);
        break;
    }
  }
  if (in_quotes) {
    const std::string at = doc.source_.empty()
                               ? "line " + std::to_string(row_line)
                               : doc.source_ + ":" + std::to_string(row_line);
    throw InputError("CSV: unterminated quoted field (" + at + ")");
  }
  if (field_started || !field_empty || row_fields > 0) end_row();
  return doc;
}

CsvDoc read_csv_doc(const std::string& path) {
  return parse_csv_doc(read_file(path), path);
}

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

std::string to_csv(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += csv_escape(row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  write_file(path, to_csv(rows));
}

}  // namespace e2c::util
