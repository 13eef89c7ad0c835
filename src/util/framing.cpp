#include "util/framing.hpp"

#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace e2c::util {

void ByteWriter::raw(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void ByteWriter::str(std::string_view value) {
  u32(static_cast<std::uint32_t>(value.size()));
  buffer_.append(value.data(), value.size());
}

void ByteReader::raw(void* out, std::size_t size) {
  require_input(size <= bytes_.size() - offset_, "frame: truncated payload");
  std::memcpy(out, bytes_.data() + offset_, size);
  offset_ += size;
}

std::uint8_t ByteReader::u8() {
  std::uint8_t value = 0;
  raw(&value, sizeof value);
  return value;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t value = 0;
  raw(&value, sizeof value);
  return value;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t value = 0;
  raw(&value, sizeof value);
  return value;
}

double ByteReader::f64() {
  double value = 0.0;
  raw(&value, sizeof value);
  return value;
}

std::string ByteReader::str() {
  const std::uint32_t size = u32();
  require_input(size <= bytes_.size() - offset_, "frame: truncated string");
  std::string value(bytes_.data() + offset_, size);
  offset_ += size;
  return value;
}

namespace {

/// Reads exactly \p size bytes; returns the count actually read, which is
/// short only when the peer closed the pipe.
std::size_t read_upto(int fd, char* out, std::size_t size) {
  std::size_t total = 0;
  while (total < size) {
    const ssize_t got = ::read(fd, out + total, size - total);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("pipe: read failed: ") + std::strerror(errno));
    }
    if (got == 0) break;  // EOF
    total += static_cast<std::size_t>(got);
  }
  return total;
}

}  // namespace

void write_frame_zc(int fd, std::string_view payload) {
  std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  iovec iov[2];
  iov[0].iov_base = &size;
  iov[0].iov_len = sizeof size;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  int index = 0;
  while (index < 2) {
    const ssize_t written = ::writev(fd, &iov[index], 2 - index);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("frame: writev failed: ") + std::strerror(errno));
    }
    auto remaining = static_cast<std::size_t>(written);
    while (index < 2 && remaining >= iov[index].iov_len) {
      remaining -= iov[index].iov_len;
      ++index;
    }
    if (index < 2 && remaining > 0) {
      iov[index].iov_base = static_cast<char*>(iov[index].iov_base) + remaining;
      iov[index].iov_len -= remaining;
    }
  }
}

bool read_frame_into(int fd, std::string& payload, std::size_t max_payload) {
  std::uint32_t size = 0;
  const std::size_t header = read_upto(fd, reinterpret_cast<char*>(&size), sizeof size);
  if (header == 0) {
    payload.clear();
    return false;  // clean EOF between frames
  }
  if (header < sizeof size) throw IoError("pipe: peer closed mid-frame header");
  if (size > max_payload) {
    throw IoError("frame: payload of " + std::to_string(size) + " bytes exceeds the " +
                  std::to_string(max_payload) + "-byte limit");
  }
  payload.resize(size);
  if (read_upto(fd, payload.data(), size) < size) {
    throw IoError("pipe: peer closed mid-frame payload");
  }
  return true;
}

std::string hex_encode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string text;
  text.reserve(bytes.size() * 2);
  for (const char byte : bytes) {
    const auto value = static_cast<unsigned char>(byte);
    text.push_back(kDigits[value >> 4]);
    text.push_back(kDigits[value & 0xF]);
  }
  return text;
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex_decode(std::string_view text) {
  require_input(text.size() % 2 == 0, "hex payload has odd length");
  std::string bytes;
  bytes.reserve(text.size() / 2);
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const int hi = hex_digit(text[i]);
    const int lo = hex_digit(text[i + 1]);
    require_input(hi >= 0 && lo >= 0, "hex payload has non-hex characters");
    bytes.push_back(static_cast<char>((hi << 4) | lo));
  }
  return bytes;
}

}  // namespace e2c::util
