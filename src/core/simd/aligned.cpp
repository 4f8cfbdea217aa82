#include "core/simd/aligned.hpp"

#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ara::simd {

namespace {

std::align_val_t table_alignment(std::size_t bytes) noexcept {
  return std::align_val_t(bytes >= kHugePageMinBytes ? kHugePageBytes
                                                     : kCacheLineBytes);
}

}  // namespace

void* alloc_table_bytes(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = ::operator new(bytes, table_alignment(bytes));
#if defined(MADV_HUGEPAGE)
  // Before the first touch, so the zero fill faults in huge pages.
  // Advice only: a kernel without transparent huge pages refuses it
  // and the table stays on base pages, so the result is ignored.
  if (bytes >= kHugePageMinBytes) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  std::memset(p, 0, bytes);
  return p;
}

void free_table_bytes(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) ::operator delete(p, table_alignment(bytes));
}

}  // namespace ara::simd
