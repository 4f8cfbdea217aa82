// SoA binding of a portfolio: the one binding every engine and
// extension sweeps (ReferenceEngine, the independent oracle, excepted).
// It flattens the portfolio's layers, ELT terms and table columns so
// that applying one occurrence walks no per-ELT indirection:
//
//   * one contiguous array of column base pointers into the
//     event-major TableStore over every (layer, ELT) slot, in layer
//     order (`elt_begin` delimits layers): slot j's loss for event ev
//     is table_base[j][ev * row_stride]. One base pointer per slot,
//     not a row pointer plus a column index: the scalar kernel's
//     per-slot loop then auto-vectorizes (two lanes, in-order sum, so
//     still bitwise), which a row[col[j]] gather defeats,
//   * the financial-terms parameters pre-cast to the working precision
//     and split into four parallel arrays (fx / retention / limit /
//     share), so the per-ELT term application is a straight-line sweep
//     a vector unit can load with one instruction per operand,
//   * a second, vector-only set of term arrays with the share factor
//     folded in (fx*share / retention*share / limit*share):
//     (min(max(l*fx - r, 0), lim))*s == min(max(l*(fx*s) - r*s, 0),
//     lim*s) for s >= 0, so folding drops one multiply and one load
//     per slot. The fold reassociates rounding, which the vector
//     kernels' tolerance contract already admits — elt_sum
//     (core/simd/steps.hpp) keeps the unfolded arrays. A zero-share
//     slot folds to all-zero terms (lim*s would be inf*0 = NaN for an
//     unlimited cover), so it gives exactly +0.0, as padding does,
//   * each layer's slot run padded to a multiple of kEltPad with
//     all-zero terms (pointing at the layer's first table), so the
//     vector combine loops are remainder-free: a zeroed slot
//     contributes exactly +0.0 through the clamp chain,
//   * the per-layer occurrence/aggregate terms as parallel arrays
//     padded to a lane multiple (padding layers carry limit 0, which
//     forces their contribution to exactly 0), so the across-layer
//     state update is a remainder-free aligned vector loop.
//
// Pre-casting the double terms to `Real` at bind time is bitwise-
// neutral: apply_financial_terms casts the same double to the same
// Real on every call, so hoisting the cast cannot change a result.
//
// PortfolioTrialState is the matching SoA of every layer's running
// state in parallel aligned arrays. Both are consumed by the dispatched
// kernels in core/simd/kernels.hpp.
//
// This header is deliberately lean — struct definitions only, binding
// logic out of line in bound_portfolio.cpp — because the ISA-specific
// kernel TUs include it while compiled with per-file vector flags, and
// inline code shared with default-flag TUs would be an ODR hazard (the
// operand steps in steps.hpp have internal linkage for that reason).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd/aligned.hpp"
#include "core/types.hpp"

namespace ara {
class Portfolio;
template <typename Real>
struct TableStore;
}  // namespace ara

namespace ara::simd {

/// Layer-count padding unit: 8 covers the widest lane count dispatched
/// (AVX2 f32), so every ISA's across-layer loop is remainder-free.
inline constexpr std::size_t kLayerPad = 8;

/// ELT-slot padding unit per layer, same rationale: the vector combine
/// loops run the padded range with no scalar tail.
inline constexpr std::size_t kEltPad = 8;

/// Rows are only worth prefetching when the table plausibly misses
/// cache; below this size `prefetch_rows` stays null and the kernels
/// skip the instructions entirely.
inline constexpr std::size_t kPrefetchMinTableBytes = std::size_t{2} << 20;

/// The sweep prefetches the row of the occurrence this many positions
/// ahead (and the first window's rows at trial start). Measured on the
/// paper's 229 MiB shape, 8 ahead beat 1, 4 and 16 (DESIGN.md §8).
inline constexpr std::size_t kPrefetchWindow = 8;

template <typename Real>
struct BoundPortfolio {
  std::size_t layers = 0;         ///< real layer count
  std::size_t padded_layers = 0;  ///< layers rounded up to kLayerPad

  // Flat (layer, ELT) slots, layer-major. Layer a's real slots are
  // [elt_begin[a], elt_end[a]); the padded run the vector kernels
  // sweep is [elt_begin[a], elt_begin[a + 1]) — a multiple of kEltPad
  // wide, zero-term slots after elt_end[a].
  std::vector<const Real*> table_base;  ///< column base pointers
  std::size_t row_stride = 0;           ///< slots per event-major row
  AlignedVector<Real> fx;               ///< financial terms, pre-cast
  AlignedVector<Real> retention;
  AlignedVector<Real> limit;
  AlignedVector<Real> share;
  // Vector-only folded terms (share multiplied through; see header
  // comment). The scalar kernel never touches these.
  AlignedVector<Real> fx_share;
  AlignedVector<Real> retention_share;
  AlignedVector<Real> limit_share;
  std::vector<std::uint32_t> elt_begin;  ///< [layers + 1], padded starts
  std::vector<std::uint32_t> elt_end;    ///< [layers], real slot ends

  // Per-layer XL terms, padded to padded_layers (padding: limit 0).
  AlignedVector<Real> occ_retention;
  AlignedVector<Real> occ_limit;
  AlignedVector<Real> agg_retention;
  AlignedVector<Real> agg_limit;

  /// Base of the event-major rows for software prefetch; null when
  /// the table is cache-resident (see kPrefetchMinTableBytes) — the
  /// kernels then skip prefetching.
  const Real* prefetch_rows = nullptr;
};

/// Running state of one trial over every layer: aggregate_step's four
/// registers per layer as parallel 64-byte-aligned arrays of length
/// padded_layers (padding lanes stay 0 by construction). `combined` is
/// the per-event scratch the vector kernels' multi-layer apply stages
/// the per-layer combined losses in.
template <typename Real>
struct PortfolioTrialState {
  AlignedVector<Real> combined;
  AlignedVector<Real> cumulative;
  AlignedVector<Real> prev_capped;
  AlignedVector<Real> annual;
  AlignedVector<Real> max_occurrence;

  PortfolioTrialState() = default;
  explicit PortfolioTrialState(const BoundPortfolio<Real>& bp);

  /// Zeroes the running state (the start-of-trial reset).
  void reset() noexcept;
};

/// Binds `portfolio` against the store's event-major rows (which must
/// have been built from the same portfolio). The returned structure holds
/// raw pointers into `store`; the store must outlive it.
template <typename Real>
BoundPortfolio<Real> bind_portfolio(const Portfolio& portfolio,
                                    const TableStore<Real>& store);

}  // namespace ara::simd
