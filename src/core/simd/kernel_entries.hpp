// Internal: the per-ISA kernel entry points the dispatcher wires into
// SweepKernel, and the one sweep loop they share. Each entry is
// defined in exactly one TU (kernels_scalar.cpp / kernels_avx2.cpp /
// kernels_neon.cpp); the ISA TUs are compiled with per-file vector
// flags and keep everything but these uniquely-named entries in
// anonymous namespaces, so no inline symbol ever has two differently-
// compiled definitions.
//
// The prefetch helpers and `sweep_trial` below sit in an anonymous
// namespace, so each kernel TU compiles its own internal copy with its
// own flags. A kernel TU supplies only its ELT combine and its
// multi-layer apply; sweep_trial owns everything else.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd/bound_portfolio.hpp"
#include "core/simd/steps.hpp"
#include "core/types.hpp"

namespace ara::simd {
namespace {

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

/// One whole trial: reset, row prefetch, then every occurrence.
/// `layer_combine(bp, a)` returns the TU's ELT combine for layer a as a
/// callable on an event's row offset; `apply_layers(bp, row, st)`
/// applies one occurrence to every layer of a multi-layer book. A
/// one-layer book takes aggregate_step with its combine, its terms and
/// its running state hoisted into locals, which the compiler keeps in
/// registers (same operations in the same order as the general loop).
template <typename Real, typename LayerCombine, typename ApplyLayers>
inline void sweep_trial(const BoundPortfolio<Real>& bp,
                        std::span<const EventOccurrence> trial,
                        PortfolioTrialState<Real>& st,
                        LayerCombine layer_combine, ApplyLayers apply_layers) {
  st.reset();
  const std::size_t n = trial.size();
  prefetch_first_rows(bp, trial);

  if (bp.layers == 1) {
    const auto combine = layer_combine(bp, 0);
    const XlTerms<Real> terms = xl_terms(bp, 0);
    Real max_occ = Real(0), cumulative = Real(0);
    Real prev_capped = Real(0), annual = Real(0);
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_ahead(bp, trial, i);
      aggregate_step(terms, combine(row_of(bp, trial[i].event)), max_occ,
                     cumulative, prev_capped, annual);
    }
    st.max_occurrence[0] = max_occ;
    st.cumulative[0] = cumulative;
    st.prev_capped[0] = prev_capped;
    st.annual[0] = annual;
    return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(bp, trial, i);
    apply_layers(bp, row_of(bp, trial[i].event), st);
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

#if defined(ARA_SIMD_HAVE_AVX2)
void sweep_avx2(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st);
void sweep_avx2(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st);
#endif

#if defined(ARA_SIMD_HAVE_NEON)
void sweep_neon(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st);
void sweep_neon(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st);
#endif

}  // namespace ara::simd::detail
