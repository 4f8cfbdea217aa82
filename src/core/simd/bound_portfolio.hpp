// The binding every engine and extension sweeps (ReferenceEngine, the
// independent oracle, excepted): the layer-event table's rows
// (core/trial_math.hpp) and each layer's occurrence and aggregate terms
// pre-cast to the working precision. Applying one occurrence of event
// ev to layer a is one load, row(ev)[a], and one aggregate_step
// (core/simd/steps.hpp) under terms[a].
//
// PortfolioTrialState is the matching running state of every layer,
// one array per register of aggregate_step. Both are consumed by the
// sweep in core/simd/kernels.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/layer.hpp"
#include "core/simd/steps.hpp"
#include "core/trial_math.hpp"
#include "core/types.hpp"

namespace ara::simd {

/// Rows are only worth prefetching when the table plausibly misses
/// cache; below this size `prefetch_rows` stays null and the sweep
/// skips the instructions entirely.
inline constexpr std::size_t kPrefetchMinTableBytes = std::size_t{2} << 20;

/// The sweep prefetches the row of the occurrence this many positions
/// ahead (and the first window's rows at trial start). Measured on the
/// paper's shape, 8 ahead beat 1, 4 and 16 (DESIGN.md §8).
inline constexpr std::size_t kPrefetchWindow = 8;

template <typename Real>
struct BoundPortfolio {
  std::size_t layers = 0;      ///< columns = row stride of `rows`
  const Real* rows = nullptr;  ///< the store's layer-event rows
  std::vector<XlTerms<Real>> terms;  ///< per layer

  /// Base of the rows for software prefetch; null when the table is
  /// cache-resident (see kPrefetchMinTableBytes) — the sweep then
  /// skips prefetching.
  const Real* prefetch_rows = nullptr;

  /// Event `ev`'s row: one pre-occurrence-terms loss per layer.
  const Real* row(EventId ev) const noexcept {
    return rows + static_cast<std::size_t>(ev) * layers;
  }
};

/// Running state of one trial over every layer: aggregate_step's four
/// registers per layer as parallel arrays of length `layers`.
template <typename Real>
struct PortfolioTrialState {
  std::vector<Real> cumulative;
  std::vector<Real> prev_capped;
  std::vector<Real> annual;
  std::vector<Real> max_occurrence;

  PortfolioTrialState() = default;
  explicit PortfolioTrialState(const BoundPortfolio<Real>& bp)
      : cumulative(bp.layers, Real(0)),
        prev_capped(bp.layers, Real(0)),
        annual(bp.layers, Real(0)),
        max_occurrence(bp.layers, Real(0)) {}

  /// Zeroes the running state (the start-of-trial reset).
  void reset() noexcept {
    std::fill(cumulative.begin(), cumulative.end(), Real(0));
    std::fill(prev_capped.begin(), prev_capped.end(), Real(0));
    std::fill(annual.begin(), annual.end(), Real(0));
    std::fill(max_occurrence.begin(), max_occurrence.end(), Real(0));
  }
};

/// Binds `portfolio` against the store's rows (which must have been
/// built from the same portfolio). The returned structure points into
/// `store`; the store must outlive it.
template <typename Real>
BoundPortfolio<Real> bind_portfolio(const Portfolio& portfolio,
                                    const TableStore<Real>& store) {
  BoundPortfolio<Real> bp;
  bp.layers = portfolio.layer_count();
  bp.rows = store.data();
  bp.terms.reserve(bp.layers);
  for (const Layer& layer : portfolio.layers()) {
    bp.terms.push_back(xl_terms<Real>(layer.terms));
  }
  // Prefetch only when upcoming rows plausibly miss cache.
  if (store.bytes() >= kPrefetchMinTableBytes) bp.prefetch_rows = bp.rows;
  return bp;
}

}  // namespace ara::simd
