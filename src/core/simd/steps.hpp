// The trial half of Algorithm 1 (lines 15-29) for one occurrence of one
// layer, written once:
//
//   aggregate_step  occurrence clamp, max update, prefix sum, aggregate
//                   clamp, and the diff into the annual loss.
//
// Its input is the layer's loss for the event before occurrence terms:
// the layer-event table's cell (core/trial_math.hpp), which already
// holds the ELT half (lines 5-13), or, under secondary uncertainty, the
// same sum over perturbed ground-up losses. The sweep
// (kernels_scalar.cpp), secondary uncertainty and the combined-table
// GPU engine all call it, so the bitwise identity the engines promise
// rests on one copy of the sequence. ReferenceEngine's literal
// four-pass loop is the independent oracle it is checked against.
//
// A caller reads a layer's terms out of the binding once, before its
// loop over occurrences, so the one-layer sweep keeps them in
// registers. Reading the terms pre-cast to Real is bitwise-neutral:
// the oracle casts the same double to the same Real on every call.
#pragma once

#include "core/layer_terms.hpp"

namespace ara::simd {

/// One layer's occurrence and aggregate terms in the working precision.
template <typename Real>
struct XlTerms {
  Real occ_retention;
  Real occ_limit;
  Real agg_retention;
  Real agg_limit;
};

template <typename Real>
inline XlTerms<Real> xl_terms(const LayerTerms& t) {
  return {static_cast<Real>(t.occ_retention), static_cast<Real>(t.occ_limit),
          static_cast<Real>(t.agg_retention), static_cast<Real>(t.agg_limit)};
}

/// Applies one occurrence's pre-occurrence-terms loss `combined` to a
/// layer's running state under its terms `t`.
template <typename Real>
[[gnu::always_inline]] inline void aggregate_step(
    const XlTerms<Real>& t, Real combined, Real& max_occurrence,
    Real& cumulative, Real& prev_capped, Real& annual) {
  Real y = combined - t.occ_retention;
  if (y < Real(0)) y = Real(0);
  if (y > t.occ_limit) y = t.occ_limit;
  if (y > max_occurrence) max_occurrence = y;
  cumulative += y;
  Real capped = cumulative - t.agg_retention;
  if (capped < Real(0)) capped = Real(0);
  if (capped > t.agg_limit) capped = t.agg_limit;
  annual += capped - prev_capped;
  prev_capped = capped;
}

}  // namespace ara::simd
