// The per-(event, layer) operand sequence of Algorithm 1, written once
// over the SoA binding (bound_portfolio.hpp):
//
//   elt_sum         the ELT half (lines 5-13): each slot's loss * fx -
//                   retention, clamped to [0, limit], times share,
//                   summed left to right in slot order. The result is
//                   the layer's occurrence loss *before* occurrence
//                   terms, which is what reinstatement pricing needs.
//   aggregate_step  the trial half (lines 15-29) for one occurrence:
//                   occurrence clamp, max update, prefix sum,
//                   aggregate clamp, and the diff into the annual loss.
//
// The scalar sweep (kernels_scalar.cpp), the vector kernels' one-layer
// running state, reinstatements, secondary uncertainty and the
// combined-table GPU engine all call these two steps, so the bitwise
// identity the engines promise rests on one copy of the sequence.
// ReferenceEngine's literal four-pass loop is the independent oracle
// it is checked against.
//
// A caller reads a layer's slots (layer_slots) and terms (xl_terms) out
// of the binding once, before its loop over occurrences: with them in
// registers the one-layer sweep on the paper's 229 MiB table runs as
// fast as the hand-hoisted loop it replaced, and re-reading them per
// occurrence cost about 20% there. Both steps are always_inline with
// internal linkage: the kernel TUs are compiled with per-file vector
// flags, so every including TU gets its own copy and no inline symbol
// has two differently-compiled definitions. Reading the terms pre-cast
// to Real at bind time is bitwise-neutral (apply_financial_terms casts
// the same double to the same Real on every call).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "core/simd/bound_portfolio.hpp"
#include "core/types.hpp"

namespace ara::simd {
namespace {

/// Offset of event `ev`'s row in every slot's column.
template <typename Real>
inline std::size_t row_of(const BoundPortfolio<Real>& bp, EventId ev) {
  return static_cast<std::size_t>(ev) * bp.row_stride;
}

/// Layer a's real ELT slots [elt_begin[a], elt_end[a]) as pointers to
/// its first slot, read out of the binding once per sweep so a loop
/// over occurrences touches no binding state.
template <typename Real>
struct EltSlots {
  const Real* const* table_base;
  const Real* fx;
  const Real* retention;
  const Real* limit;
  const Real* share;
  std::uint32_t count;
};

template <typename Real>
inline EltSlots<Real> layer_slots(const BoundPortfolio<Real>& bp,
                                  std::size_t a) {
  const std::uint32_t jb = bp.elt_begin[a];
  return {bp.table_base.data() + jb, bp.fx.data() + jb,
          bp.retention.data() + jb,  bp.limit.data() + jb,
          bp.share.data() + jb,      bp.elt_end[a] - jb};
}

/// Sum over the slots of share * clamp(loss(j) * fx - retention, 0,
/// limit), in slot order. `loss(j)` is slot j's ground-up loss for the
/// occurrence (secondary uncertainty perturbs it).
template <typename Real, std::invocable<std::uint32_t> Loss>
[[gnu::always_inline]] inline Real elt_sum(const EltSlots<Real>& s,
                                           Loss loss) {
  Real sum = Real(0);
  for (std::uint32_t j = 0; j < s.count; ++j) {
    Real x = loss(j) * s.fx[j] - s.retention[j];
    if (x < Real(0)) x = Real(0);
    if (x > s.limit[j]) x = s.limit[j];
    sum += x * s.share[j];
  }
  return sum;
}

/// elt_sum over the table: `row` is the event's row offset (row_of).
template <typename Real>
[[gnu::always_inline]] inline Real elt_sum(const EltSlots<Real>& s,
                                           std::size_t row) {
  return elt_sum(s, [&](std::uint32_t j) { return s.table_base[j][row]; });
}

/// One layer's occurrence and aggregate terms, read out of the binding
/// once per sweep so a loop over occurrences keeps them in registers.
template <typename Real>
struct XlTerms {
  Real occ_retention;
  Real occ_limit;
  Real agg_retention;
  Real agg_limit;
};

template <typename Real>
inline XlTerms<Real> xl_terms(const BoundPortfolio<Real>& bp, std::size_t a) {
  return {bp.occ_retention[a], bp.occ_limit[a], bp.agg_retention[a],
          bp.agg_limit[a]};
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

}  // namespace
}  // namespace ara::simd
