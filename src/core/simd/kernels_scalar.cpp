// Scalar kernels over the SoA binding: the bitwise-reference mode.
//
// The ELT combine is elt_sum over a layer's real slots and the
// multi-layer apply is elt_sum + aggregate_step per layer, in layer
// order (core/simd/steps.hpp); sweep_trial (kernel_entries.hpp) drives
// them. Every engine's kScalar result is therefore the one operand
// sequence, which the identity walls check bit for bit against
// ReferenceEngine's independent four-pass loop.
#include <cstddef>

#include "core/simd/kernel_entries.hpp"

namespace ara::simd {
namespace {

// Real slots only (layer_slots ends at elt_end): the zero-term padding
// slots exist for the vector kernels' remainder-free loops.
template <typename Real>
inline auto combine_layer(const BoundPortfolio<Real>& bp, std::size_t a) {
  return [slots = layer_slots(bp, a)](std::size_t row) {
    return elt_sum(slots, row);
  };
}

template <typename Real>
inline void apply_layers(const BoundPortfolio<Real>& bp, std::size_t row,
                         PortfolioTrialState<Real>& st) {
  for (std::size_t a = 0; a < bp.layers; ++a) {
    aggregate_step(xl_terms(bp, a), elt_sum(layer_slots(bp, a), row),
                   st.max_occurrence[a], st.cumulative[a], st.prev_capped[a],
                   st.annual[a]);
  }
}

}  // namespace

namespace detail {

void sweep_scalar(const BoundPortfolio<double>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<double>& st) {
  sweep_trial(bp, trial, st, combine_layer<double>, apply_layers<double>);
}
void sweep_scalar(const BoundPortfolio<float>& bp,
                  std::span<const EventOccurrence> trial,
                  PortfolioTrialState<float>& st) {
  sweep_trial(bp, trial, st, combine_layer<float>, apply_layers<float>);
}

}  // namespace detail
}  // namespace ara::simd
