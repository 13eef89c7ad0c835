#include "util/file_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace e2c::util {

// One read into a size-reserved string (one allocation), instead of the
// ostringstream << rdbuf() idiom, which buffers the bytes twice.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  // A directory opens, but its end offset is no size: resizing to it throws
  // std::bad_alloc.
  if (!in || std::filesystem::is_directory(path)) throw IoError("cannot open file: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  std::string text;
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(text.data(), size);
    if (!in) throw IoError("failed reading file: " + path);
  } else if (size < 0) {
    // Non-seekable source (pipe/special file): fall back to streaming.
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = std::move(buffer).str();
  }
  return text;
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open file for writing: " + path);
  out << text;
  if (!out) throw IoError("failed writing file: " + path);
}

}  // namespace e2c::util
