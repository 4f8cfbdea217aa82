// The sweep: the trial half of Algorithm 1 (aggregate_step,
// core/simd/steps.hpp) over the layer-event table, one value per
// covered occurrence and layer. Every engine's result is therefore the
// one operand sequence, which the identity walls check bit for bit
// against ReferenceEngine's independent four-pass loop.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/simd/kernels.hpp"

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
  const char* row = reinterpret_cast<const char*>(
      bp.prefetch_rows + static_cast<std::size_t>(ev) * bp.layers);
  const char* end = row + bp.layers * sizeof(Real);
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

/// One whole trial: reset, row prefetch, then every occurrence. A
/// one-layer book keeps its terms and running state in locals, which
/// the compiler holds in registers (the same operations in the same
/// order as the general loop).
template <typename Real>
void sweep_trial(const BoundPortfolio<Real>& bp,
                 std::span<const EventOccurrence> trial,
                 PortfolioTrialState<Real>& st) {
  st.reset();
  const std::size_t n = trial.size();
  prefetch_first_rows(bp, trial);

  if (bp.layers == 1) {
    const XlTerms<Real> terms = bp.terms[0];
    const Real* rows = bp.rows;
    Real max_occ = Real(0), cumulative = Real(0);
    Real prev_capped = Real(0), annual = Real(0);
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_ahead(bp, trial, i);
      aggregate_step(terms, rows[trial[i].event], max_occ, cumulative,
                     prev_capped, annual);
    }
    st.max_occurrence[0] = max_occ;
    st.cumulative[0] = cumulative;
    st.prev_capped[0] = prev_capped;
    st.annual[0] = annual;
    return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(bp, trial, i);
    const Real* row = bp.row(trial[i].event);
    for (std::size_t a = 0; a < bp.layers; ++a) {
      aggregate_step(bp.terms[a], row[a], st.max_occurrence[a],
                     st.cumulative[a], st.prev_capped[a], st.annual[a]);
    }
  }
}

}  // namespace

template <typename Real>
SweepKernel<Real> select_kernel(SimdPolicy policy, unsigned width) {
  if (policy == SimdPolicy::kForceWidth) {
    throw std::runtime_error(
        "simd: kForceWidth requested but no vector kernel is available "
        "(width " +
        std::to_string(width) + " for " +
        std::string(sizeof(Real) == 4 ? "f32" : "f64") +
        "; the scalar kernel is the only one)");
  }
  SweepKernel<Real> k;
  k.sweep = &sweep_trial<Real>;
  return k;
}

template SweepKernel<float> select_kernel(SimdPolicy, unsigned);
template SweepKernel<double> select_kernel(SimdPolicy, unsigned);

}  // namespace ara::simd
