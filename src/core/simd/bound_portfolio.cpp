#include "core/simd/bound_portfolio.hpp"

#include <algorithm>

#include "core/layer.hpp"
#include "core/trial_math.hpp"

namespace ara::simd {

namespace {

std::size_t pad_layers(std::size_t layers) {
  return ((layers + kLayerPad - 1) / kLayerPad) * kLayerPad;
}

std::size_t pad_elts(std::size_t elts) {
  return ((elts + kEltPad - 1) / kEltPad) * kEltPad;
}

}  // namespace

template <typename Real>
PortfolioTrialState<Real>::PortfolioTrialState(const BoundPortfolio<Real>& bp)
    : combined(bp.padded_layers, Real(0)),
      cumulative(bp.padded_layers, Real(0)),
      prev_capped(bp.padded_layers, Real(0)),
      annual(bp.padded_layers, Real(0)),
      max_occurrence(bp.padded_layers, Real(0)) {}

template <typename Real>
void PortfolioTrialState<Real>::reset() noexcept {
  // Padding lanes are re-zeroed along with the live ones, so the
  // vector loops may store through the full padded width.
  std::fill(cumulative.begin(), cumulative.end(), Real(0));
  std::fill(prev_capped.begin(), prev_capped.end(), Real(0));
  std::fill(annual.begin(), annual.end(), Real(0));
  std::fill(max_occurrence.begin(), max_occurrence.end(), Real(0));
}

template <typename Real>
BoundPortfolio<Real> bind_portfolio(const Portfolio& portfolio,
                                    const TableStore<Real>& store) {
  BoundPortfolio<Real> bp;
  bp.layers = portfolio.layer_count();
  bp.padded_layers = pad_layers(std::max<std::size_t>(bp.layers, 1));

  std::size_t slots = 0;
  for (const Layer& layer : portfolio.layers()) {
    slots += pad_elts(layer.elt_indices.size());
  }
  bp.table_base.reserve(slots);
  bp.fx.reserve(slots);
  bp.retention.reserve(slots);
  bp.limit.reserve(slots);
  bp.share.reserve(slots);
  bp.fx_share.reserve(slots);
  bp.retention_share.reserve(slots);
  bp.limit_share.reserve(slots);
  bp.elt_begin.reserve(bp.layers + 1);
  bp.elt_end.reserve(bp.layers);

  bp.row_stride = store.width;
  bp.elt_begin.push_back(0);
  for (std::size_t a = 0; a < bp.layers; ++a) {
    const Layer& layer = portfolio.layers()[a];
    const std::size_t count = layer.elt_indices.size();
    for (std::size_t j = 0; j < count; ++j) {
      const FinancialTerms& t =
          portfolio.elts()[layer.elt_indices[j]].terms();
      const Real share = static_cast<Real>(t.share);
      bp.table_base.push_back(store.data() + store.per_layer[a][j]);
      bp.fx.push_back(static_cast<Real>(t.fx_rate));
      bp.retention.push_back(static_cast<Real>(t.retention));
      bp.limit.push_back(static_cast<Real>(t.limit));
      bp.share.push_back(share);
      // A zero share folds to all-zero terms, like a padding slot: the
      // product would turn an unlimited cover's inf * 0 into NaN.
      const bool zero = share == Real(0);
      bp.fx_share.push_back(zero ? Real(0)
                                 : static_cast<Real>(t.fx_rate) * share);
      bp.retention_share.push_back(
          zero ? Real(0) : static_cast<Real>(t.retention) * share);
      bp.limit_share.push_back(zero ? Real(0)
                                    : static_cast<Real>(t.limit) * share);
    }
    bp.elt_end.push_back(static_cast<std::uint32_t>(bp.table_base.size()));
    // Zero-term padding slots: they load the layer's first column
    // (a line of the row being read anyway) but every parameter is 0,
    // so the clamp chain yields exactly +0.0 per padded lane.
    if (count > 0) {
      const Real* base = bp.table_base[bp.elt_begin[a]];
      for (std::size_t j = count; j < pad_elts(count); ++j) {
        bp.table_base.push_back(base);
        bp.fx.push_back(Real(0));
        bp.retention.push_back(Real(0));
        bp.limit.push_back(Real(0));
        bp.share.push_back(Real(0));
        bp.fx_share.push_back(Real(0));
        bp.retention_share.push_back(Real(0));
        bp.limit_share.push_back(Real(0));
      }
    }
    bp.elt_begin.push_back(static_cast<std::uint32_t>(bp.table_base.size()));
  }

  // Per-layer XL terms; padding layers get limit 0 on both clamps so
  // whatever the vector loops compute for them collapses to exactly 0.
  bp.occ_retention.assign(bp.padded_layers, Real(0));
  bp.occ_limit.assign(bp.padded_layers, Real(0));
  bp.agg_retention.assign(bp.padded_layers, Real(0));
  bp.agg_limit.assign(bp.padded_layers, Real(0));
  for (std::size_t a = 0; a < bp.layers; ++a) {
    const LayerTerms& t = portfolio.layers()[a].terms;
    bp.occ_retention[a] = static_cast<Real>(t.occ_retention);
    bp.occ_limit[a] = static_cast<Real>(t.occ_limit);
    bp.agg_retention[a] = static_cast<Real>(t.agg_retention);
    bp.agg_limit[a] = static_cast<Real>(t.agg_limit);
  }

  // Prefetch only when upcoming rows plausibly miss cache.
  if (store.bytes() >= kPrefetchMinTableBytes) {
    bp.prefetch_rows = store.data();
  }
  return bp;
}

template struct PortfolioTrialState<float>;
template struct PortfolioTrialState<double>;
template BoundPortfolio<float> bind_portfolio(const Portfolio&,
                                              const TableStore<float>&);
template BoundPortfolio<double> bind_portfolio(const Portfolio&,
                                               const TableStore<double>&);

}  // namespace ara::simd
