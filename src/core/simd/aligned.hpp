// Owning storage for the loss table (core/trial_math.hpp): TableArray,
// zero-filled and 64-byte aligned, and for tables of at least
// kHugePageMinBytes placed on a 2 MiB boundary and advised
// MADV_HUGEPAGE (Linux) before their first touch. A large table is read
// at random rows, so with 4 KiB pages nearly every lookup also misses
// the TLB; small tables stay on plain pages, where the advice only
// costs resident memory (whole 2 MiB pages) and buys no throughput.
#pragma once

#include <cstddef>
#include <memory>

namespace ara::simd {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Loss tables at least this large are allocated on a kHugePageBytes
/// boundary and advised MADV_HUGEPAGE.
inline constexpr std::size_t kHugePageMinBytes = std::size_t{64} << 20;
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Zero-filled table storage of `bytes` (nullptr for 0): 64-byte
/// aligned, or 2 MiB aligned and huge-page advised from
/// kHugePageMinBytes up. Release with free_table_bytes(p, bytes).
void* alloc_table_bytes(std::size_t bytes);
void free_table_bytes(void* p, std::size_t bytes) noexcept;

struct TableArrayDeleter {
  std::size_t bytes = 0;
  void operator()(void* p) const noexcept { free_table_bytes(p, bytes); }
};

/// Owning, move-only array of loss-table slots from alloc_table_bytes.
template <typename T>
using TableArray = std::unique_ptr<T[], TableArrayDeleter>;

template <typename T>
TableArray<T> make_table_array(std::size_t n) {
  const std::size_t bytes = n * sizeof(T);
  return TableArray<T>(static_cast<T*>(alloc_table_bytes(bytes)),
                       TableArrayDeleter{bytes});
}

}  // namespace ara::simd
