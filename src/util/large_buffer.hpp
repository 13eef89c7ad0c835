/// \file large_buffer.hpp
/// \brief Reserving large vectors on transparent huge pages.
///
/// Set-up of a multi-million-task run writes a few hundred MB of fresh
/// memory (the trace and the per-task columns), and with 4 KiB pages most
/// of that time is first-touch page faults. reserve_large() reserves a
/// vector and then advises the kernel (madvise MADV_HUGEPAGE) to back the
/// 2 MiB-aligned interior of the new buffer with huge pages, so the first
/// write faults in 2 MiB at a time. The advice applies to the process's own
/// memory only. Where it is unavailable (a kernel without transparent huge
/// pages, THP mode "never", a non-Linux host) the call fails quietly and
/// the vector is an ordinary reservation: no result ever depends on it.
#pragma once

#include <cstddef>
#include <vector>

namespace e2c::util {

/// Size of a transparent huge page with 4 KiB base pages (x86-64, arm64).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises huge pages for the 2 MiB-aligned part of [data, data + bytes).
/// Does nothing when that part is empty or the advice is unavailable.
void advise_huge_pages(void* data, std::size_t bytes) noexcept;

/// Reserves room for \p n elements and, when that allocated a buffer of
/// kHugePageBytes or more, advises huge pages for it. Call it before the
/// first write: elements the vector already holds are copied (on 4 KiB
/// pages) before the advice, so clear() a column that is about to be
/// refilled. Does nothing when the capacity already suffices.
template <typename T>
void reserve_large(std::vector<T>& values, std::size_t n) {
  if (n <= values.capacity()) return;
  values.reserve(n);
  const std::size_t bytes = values.capacity() * sizeof(T);
  if (bytes >= kHugePageBytes) advise_huge_pages(values.data(), bytes);
}

}  // namespace e2c::util
