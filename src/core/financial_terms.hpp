// Per-ELT financial terms (the tuple `I` of the paper, Section II).
//
// The paper leaves `I = (I1, I2, ...)` abstract ("currency exchange
// rates and terms that are applied at the level of each individual
// event loss"). We model the standard event-level treaty terms used in
// the catastrophe-reinsurance literature the paper cites:
//
//   out = share * clamp(loss * fx_rate - retention, 0, limit)
//
// i.e. currency conversion, an event-level deductible (retention), an
// event-level limit (cover), and a participation share. Setting
// fx_rate=share=1, retention=0, limit=inf makes the term a no-op.
#pragma once

#include <cmath>
#include <limits>

namespace ara {

/// Event-level financial terms attached to one ELT.
struct FinancialTerms {
  double fx_rate = 1.0;     ///< currency conversion applied first
  double retention = 0.0;   ///< event-level deductible (>= 0)
  double limit = std::numeric_limits<double>::infinity();  ///< event cover
  double share = 1.0;       ///< participation fraction in [0, 1]

  /// Identity terms (no transformation of the ground-up loss).
  static FinancialTerms identity() { return {}; }

  /// True if the fields define a meaningful contract. The exchange
  /// rate must be finite: an event the ELT does not record costs
  /// 0 * fx_rate, which an infinite rate turns into NaN.
  bool valid() const {
    return fx_rate >= 0.0 && std::isfinite(fx_rate) && retention >= 0.0 &&
           limit >= 0.0 && share >= 0.0 && share <= 1.0;
  }

  friend bool operator==(const FinancialTerms&,
                         const FinancialTerms&) = default;
};

/// Applies financial terms to a ground-up event loss
/// (Algorithm 1, line 9: ApplyFinancialTerms(I)). Works in any
/// floating-point precision; the optimised GPU engine instantiates the
/// float version.
template <typename Real>
inline Real apply_financial_terms(Real loss, const FinancialTerms& t) {
  Real x = loss * static_cast<Real>(t.fx_rate) - static_cast<Real>(t.retention);
  if (x < Real(0)) x = Real(0);
  const Real lim = static_cast<Real>(t.limit);
  if (x > lim) x = lim;
  return x * static_cast<Real>(t.share);
}

}  // namespace ara
