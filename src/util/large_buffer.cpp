#include "util/large_buffer.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace e2c::util {

void advise_huge_pages(void* data, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  // Advice only: EINVAL (THP compiled out) or any other failure leaves
  // ordinary pages, which is what the caller would have had anyway.
  if (last > first) (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace e2c::util
