/// \file file_io.hpp
/// \brief Whole-file reads and writes: the one place the loaders, the
/// journal reader, the CLIs and the report writers touch a file by path.
#pragma once

#include <string>
#include <string_view>

namespace e2c::util {

/// Reads the whole file at \p path. Throws e2c::IoError naming the path
/// when it cannot be opened or read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Creates or truncates \p path and writes \p text to it. Throws
/// e2c::IoError naming the path on failure.
void write_file(const std::string& path, std::string_view text);

}  // namespace e2c::util
