// Internal: the per-ISA kernel entry points the dispatcher wires into
// SweepKernel. Each overload set is defined in exactly one TU
// (kernels_scalar.cpp / kernels_avx2.cpp / kernels_neon.cpp); the ISA
// TUs are compiled with per-file vector flags and keep everything but
// these uniquely-named entries in anonymous namespaces, so no inline
// symbol ever has two differently-compiled definitions.
//
// The row addressing and prefetch helpers below are shared by the
// three kernel TUs. They sit in an anonymous namespace, so each TU
// compiles its own internal copy with its own flags.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd/bound_portfolio.hpp"
#include "core/types.hpp"

namespace ara::simd {
namespace {

/// Offset of event `ev`'s row in every slot's column.
template <typename Real>
inline std::size_t row_of(const BoundPortfolio<Real>& bp, EventId ev) {
  return static_cast<std::size_t>(ev) * bp.row_stride;
}

// The prefetch helpers are always_inline: GCC treats __builtin_prefetch
// as free of side effects, so it deduces a separate helper that only
// prefetches to be const and deletes every call to it; inlined early,
// the prefetches sit in the sweep body and stay.

/// Every cache line of event `ev`'s row.
template <typename Real>
[[gnu::always_inline]] inline void prefetch_row(const BoundPortfolio<Real>& bp,
                                                EventId ev) {
  const char* row = reinterpret_cast<const char*>(bp.prefetch_rows +
                                                  row_of(bp, ev));
  const char* end = row + bp.row_stride * sizeof(Real);
  for (const char* line =
           row - reinterpret_cast<std::uintptr_t>(row) % kCacheLineBytes;
       line < end; line += kCacheLineBytes) {
    __builtin_prefetch(line, /*rw=*/0, /*locality=*/1);
  }
}

/// Trial start: the rows of the first kPrefetchWindow occurrences.
template <typename Real>
[[gnu::always_inline]] inline void prefetch_first_rows(
    const BoundPortfolio<Real>& bp, std::span<const EventOccurrence> trial) {
  if (bp.prefetch_rows == nullptr) return;
  const std::size_t w = std::min(trial.size(), kPrefetchWindow);
  for (std::size_t i = 0; i < w; ++i) prefetch_row(bp, trial[i].event);
}

/// Before applying occurrence i: the row kPrefetchWindow positions on.
template <typename Real>
[[gnu::always_inline]] inline void prefetch_ahead(
    const BoundPortfolio<Real>& bp, std::span<const EventOccurrence> trial,
    std::size_t i) {
  if (bp.prefetch_rows != nullptr && i + kPrefetchWindow < trial.size()) {
    prefetch_row(bp, trial[i + kPrefetchWindow].event);
  }
}

}  // namespace
}  // namespace ara::simd

namespace ara::simd::detail {

// Scalar (bitwise-reference) kernels — always compiled.
void sweep_scalar(const BoundPortfolio<double>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<double>& st);
void sweep_scalar(const BoundPortfolio<float>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<float>& st);
void apply_scalar(const BoundPortfolio<double>& bp, EventId ev,
                  PortfolioTrialState<double>& st);
void apply_scalar(const BoundPortfolio<float>& bp, EventId ev,
                  PortfolioTrialState<float>& st);

#if defined(ARA_SIMD_HAVE_AVX2)
void sweep_avx2(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st);
void sweep_avx2(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st);
void apply_avx2(const BoundPortfolio<double>& bp, EventId ev,
                PortfolioTrialState<double>& st);
void apply_avx2(const BoundPortfolio<float>& bp, EventId ev,
                PortfolioTrialState<float>& st);
#endif

#if defined(ARA_SIMD_HAVE_NEON)
void sweep_neon(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st);
void sweep_neon(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st);
void apply_neon(const BoundPortfolio<double>& bp, EventId ev,
                PortfolioTrialState<double>& st);
void apply_neon(const BoundPortfolio<float>& bp, EventId ev,
                PortfolioTrialState<float>& st);
#endif

}  // namespace ara::simd::detail
