// Scalar kernels over the SoA binding: the bitwise-reference mode.
//
// The operand sequence here must stay exactly the one in
// trial_math.hpp's apply_event_to_layer (lookup * fx - retention,
// clamp, * share, accumulated left to right across a layer's ELT
// slots; then the occurrence clamp, max update, prefix sum, aggregate
// clamp and diff) — the property suite asserts bit-identity against
// the legacy formulation for every engine. The only liberties taken
// are bitwise-neutral: the terms were pre-cast to Real at bind time
// (the same cast the legacy path performs per call), the single-layer
// fast path keeps the running state in locals instead of memory (same
// operations, same order — this is the few_layers_many_trials
// regression fix: the compiler could not keep state in registers
// through the generic layer-indexed loop), and software prefetch of
// upcoming occurrences' rows touches no architectural state.
#include <cstddef>

#include "core/simd/kernel_entries.hpp"

namespace ara::simd {
namespace {

// `row` is the event's row offset (ev * row_stride) into every
// slot's column.
template <typename Real>
inline Real combine_layer_elts(const BoundPortfolio<Real>& bp,
                               std::size_t row, std::uint32_t jb,
                               std::uint32_t je) {
  Real combined = Real(0);
  for (std::uint32_t j = jb; j < je; ++j) {
    Real x = bp.table_base[j][row] * bp.fx[j] - bp.retention[j];
    if (x < Real(0)) x = Real(0);
    if (x > bp.limit[j]) x = bp.limit[j];
    combined += x * bp.share[j];
  }
  return combined;
}

template <typename Real>
inline void apply_event_impl(const BoundPortfolio<Real>& bp, EventId ev,
                             PortfolioTrialState<Real>& st) {
  const std::size_t row = row_of(bp, ev);
  for (std::size_t a = 0; a < bp.layers; ++a) {
    // Real slots only (elt_end): the zero-term padding slots exist for
    // the vector kernels' remainder-free loops.
    const Real combined =
        combine_layer_elts(bp, row, bp.elt_begin[a], bp.elt_end[a]);
    Real y = combined - bp.occ_retention[a];
    if (y < Real(0)) y = Real(0);
    if (y > bp.occ_limit[a]) y = bp.occ_limit[a];
    if (y > st.max_occurrence[a]) st.max_occurrence[a] = y;
    st.cumulative[a] += y;
    Real capped = st.cumulative[a] - bp.agg_retention[a];
    if (capped < Real(0)) capped = Real(0);
    if (capped > bp.agg_limit[a]) capped = bp.agg_limit[a];
    st.annual[a] += capped - st.prev_capped[a];
    st.prev_capped[a] = capped;
  }
}

template <typename Real>
void sweep_impl(const BoundPortfolio<Real>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<Real>& st) {
  st.reset();
  const std::size_t n = trial.size();
  prefetch_first_rows(bp, trial);

  if (bp.layers == 1) {
    // Single-layer fast path: running state in locals.
    const std::uint32_t je = bp.elt_end[0];
    const Real occ_ret = bp.occ_retention[0];
    const Real occ_lim = bp.occ_limit[0];
    const Real agg_ret = bp.agg_retention[0];
    const Real agg_lim = bp.agg_limit[0];
    Real cumulative = Real(0), prev_capped = Real(0);
    Real annual = Real(0), max_occ = Real(0);
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_ahead(bp, trial, i);
      const Real combined =
          combine_layer_elts(bp, row_of(bp, trial[i].event), 0, je);
      Real y = combined - occ_ret;
      if (y < Real(0)) y = Real(0);
      if (y > occ_lim) y = occ_lim;
      if (y > max_occ) max_occ = y;
      cumulative += y;
      Real capped = cumulative - agg_ret;
      if (capped < Real(0)) capped = Real(0);
      if (capped > agg_lim) capped = agg_lim;
      annual += capped - prev_capped;
      prev_capped = capped;
    }
    st.cumulative[0] = cumulative;
    st.prev_capped[0] = prev_capped;
    st.annual[0] = annual;
    st.max_occurrence[0] = max_occ;
    return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(bp, trial, i);
    apply_event_impl(bp, trial[i].event, st);
  }
}

}  // namespace

namespace detail {

void sweep_scalar(const BoundPortfolio<double>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<double>& st) {
  sweep_impl(bp, trial, st);
}
void sweep_scalar(const BoundPortfolio<float>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<float>& st) {
  sweep_impl(bp, trial, st);
}
void apply_scalar(const BoundPortfolio<double>& bp, EventId ev,
                  PortfolioTrialState<double>& st) {
  apply_event_impl(bp, ev, st);
}
void apply_scalar(const BoundPortfolio<float>& bp, EventId ev,
                  PortfolioTrialState<float>& st) {
  apply_event_impl(bp, ev, st);
}

}  // namespace detail
}  // namespace ara::simd
