// 64-byte-aligned vector storage for the SoA hot-path layouts.
//
// The vector kernels (core/simd/kernels_*.cpp) use aligned loads on
// the per-layer state arrays and the prefetcher works in cache-line
// units, so the containers that back them must not depend on the
// default allocator happening to return 16-byte-aligned blocks. One
// cache line (64 B) covers every ISA this repo dispatches (AVX2 needs
// 32, NEON 16) and keeps each array starting on its own line.
//
// Loss tables get their own owner, TableArray: zero-filled, 64-byte
// aligned, and for tables of at least kHugePageMinBytes placed on a
// 2 MiB boundary and advised MADV_HUGEPAGE (Linux) before their first
// touch. A large table is read at random rows, so with 4 KiB
// pages nearly every lookup also misses the TLB; small tables stay on
// plain pages, where the advice only costs resident memory (whole
// 2 MiB pages) and buys no throughput.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace ara::simd {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Loss tables at least this large are allocated on a kHugePageBytes
/// boundary and advised MADV_HUGEPAGE.
inline constexpr std::size_t kHugePageMinBytes = std::size_t{64} << 20;
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering T");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector whose data() is 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

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
