/// \file framing.hpp
/// \brief Binary payload encoding and length-prefixed frame I/O over fds.
///
/// The process-backend experiment runner ships `CellResult` payloads from
/// worker processes to the supervising parent over pipes, and persists the
/// same payloads (hex-armored) in the crash-safe sweep journal. Both sides
/// of a pipe are forks of one binary on one machine, so the encoding is the
/// native byte order with fixed-width fields — simple, and bit-exact for
/// doubles, which is what the byte-identical-results guarantee needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace e2c::util {

/// Appends fixed-width fields to a byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  /// Doubles round-trip bit-exactly: the raw 8 bytes, not a decimal print.
  void f64(double value) { raw(&value, sizeof value); }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view value);

  /// Drops the contents but keeps the allocation — the recycled-buffer
  /// pattern of the serve loop, where one writer is reused per frame so
  /// steady-state encoding never touches the allocator.
  void clear() noexcept { buffer_.clear(); }

  [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buffer_); }

 private:
  void raw(const void* data, std::size_t size);

  std::string buffer_;
};

/// Bounds-checked reads over a byte buffer; throws e2c::InputError on any
/// truncated or overlong payload so corrupt frames surface as input errors,
/// never as out-of-bounds reads.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  /// Bytes not yet consumed. Decoders require 0 at the end, so a frame with
  /// trailing garbage is rejected, and check a wire count against it before
  /// sizing anything by that count.
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - offset_; }

 private:
  void raw(void* out, std::size_t size);

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// Payload cap for frames between processes of one binary: worker command
/// and result channels, process-pool pipes, and service replies to a
/// submitting client. Far above any real frame (an INI text or one cell's
/// metrics); it only stops a corrupt length prefix from sizing the buffer.
inline constexpr std::size_t kMaxChannelFrame = std::size_t{64} << 20;  // 64 MiB

/// Writes one length-prefixed frame (u32 payload size + payload bytes) to
/// \p fd. The 4-byte length header and \p payload go out in one writev()
/// — the payload is never copied into a combined buffer, so a caller
/// encoding into a recycled ByteWriter writes frames with zero allocations
/// and zero extra copies. Loops over partial writes and EINTR; throws
/// e2c::IoError on any write failure (including EPIPE — callers supervising
/// subprocesses treat that as the peer having died). Under a partial write
/// header and payload may land in separate write()s, so a reader must
/// treat a frame cut short by the writer's death as a crash.
void write_frame_zc(int fd, std::string_view payload);

/// Reads the next length-prefixed frame's payload from \p fd (blocking)
/// into \p payload, replacing its contents and reusing its capacity.
/// Returns false on clean EOF before any byte of the frame; throws
/// e2c::IoError on a mid-frame hangup (a truncated frame is how a crashed
/// writer looks), or before allocating anything when the length prefix
/// exceeds \p max_payload. The steady-state serve loop calls this with one
/// long-lived buffer per connection, so frame reads stop allocating once
/// the buffer has grown to the session's largest frame.
[[nodiscard]] bool read_frame_into(int fd, std::string& payload, std::size_t max_payload);

/// Lowercase hex armor for embedding binary payloads in line-oriented files.
[[nodiscard]] std::string hex_encode(std::string_view bytes);

/// Inverse of hex_encode; throws e2c::InputError on odd length or non-hex
/// characters.
[[nodiscard]] std::string hex_decode(std::string_view text);

}  // namespace e2c::util
