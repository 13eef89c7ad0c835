// Tests for length-prefixed frame I/O (util/framing.hpp): every read is
// bounded by a caller-chosen payload cap, so a corrupt or hostile length
// prefix fails with IoError before anything is allocated.
#include "util/framing.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace {

using e2c::util::read_frame_into;
using e2c::util::write_frame_zc;

/// A connected AF_UNIX stream pair, closed on scope exit.
class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  [[nodiscard]] int writer() const noexcept { return fds_[0]; }
  [[nodiscard]] int reader() const noexcept { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

constexpr std::size_t kCap = std::size_t{1} << 20;

TEST(Framing, FramesUpToTheCapRoundTrip) {
  const SocketPair pair;
  write_frame_zc(pair.writer(), "hello");
  write_frame_zc(pair.writer(), "");
  write_frame_zc(pair.writer(), std::string(16, 'x'));
  std::string payload;
  ASSERT_TRUE(read_frame_into(pair.reader(), payload, kCap));
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(read_frame_into(pair.reader(), payload, kCap));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(read_frame_into(pair.reader(), payload, 16));  // exactly at the cap
  EXPECT_EQ(payload, std::string(16, 'x'));
  ::shutdown(pair.writer(), SHUT_WR);
  EXPECT_FALSE(read_frame_into(pair.reader(), payload, kCap));  // clean EOF
}

TEST(Framing, OversizeHeaderIsRejectedBeforeAllocating) {
  // A bare 4-byte header announcing ~4 GB: before the cap this resized the
  // buffer to the announced size on the reader's side.
  const SocketPair pair;
  const std::uint32_t huge = 0xF0000000u;
  ASSERT_EQ(::write(pair.writer(), &huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  std::string payload;
  try {
    (void)read_frame_into(pair.reader(), payload, kCap);
    FAIL() << "expected IoError";
  } catch (const e2c::IoError& error) {
    EXPECT_EQ(std::string(error.what()),
              "frame: payload of 4026531840 bytes exceeds the 1048576-byte limit");
  }
  EXPECT_LT(payload.capacity(), kCap);
}

TEST(Framing, CapAppliesOneByteOverTheLimit) {
  const SocketPair pair;
  write_frame_zc(pair.writer(), std::string(17, 'x'));
  std::string payload;
  EXPECT_THROW((void)read_frame_into(pair.reader(), payload, 16), e2c::IoError);
  EXPECT_LT(payload.capacity(), std::size_t{17});
}

}  // namespace
