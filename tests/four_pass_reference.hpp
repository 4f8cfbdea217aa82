// Algorithm 1 as four literal passes per (layer, trial), in any
// precision: the f32 side of the identity walls (ReferenceEngine is the
// f64 side). It shares no code with the kernels: it reads every loss
// from the ELT records through its own per-ELT dense arrays, never the
// shared TableStore, and applies the terms with financial_terms.hpp and
// layer_terms.hpp, not core/simd/steps.hpp. Its operand order is the
// one the kScalar sweep promises, so the two agree bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/layer.hpp"
#include "core/layer_terms.hpp"
#include "core/yet.hpp"
#include "core/ylt.hpp"

namespace ara {

template <typename Real>
Ylt four_pass_ylt(const Portfolio& portfolio, const Yet& yet) {
  std::vector<std::vector<Real>> tables(portfolio.elt_count());
  for (const Layer& layer : portfolio.layers()) {
    for (const std::size_t idx : layer.elt_indices) {
      if (!tables[idx].empty()) continue;
      tables[idx].assign(
          static_cast<std::size_t>(portfolio.catalogue_size()) + 1, Real(0));
      for (const EventLoss& r : portfolio.elts()[idx].records()) {
        tables[idx][r.event] = static_cast<Real>(r.loss);
      }
    }
  }

  Ylt ylt(portfolio.layer_count(), yet.trial_count());
  std::vector<Real> lox;
  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    const Layer& layer = portfolio.layers()[a];
    for (TrialId t = 0; t < yet.trial_count(); ++t) {
      const auto trial = yet.trial(t);
      const std::size_t k = trial.size();
      lox.assign(k, Real(0));
      // Pass 1: each ELT's financial terms, accumulated in ELT order.
      for (const std::size_t c : layer.elt_indices) {
        const FinancialTerms& terms = portfolio.elts()[c].terms();
        for (std::size_t d = 0; d < k; ++d) {
          lox[d] += apply_financial_terms(tables[c][trial[d].event], terms);
        }
      }
      // Pass 2: occurrence terms, and the largest occurrence loss.
      Real max_occ = Real(0);
      for (std::size_t d = 0; d < k; ++d) {
        lox[d] = apply_occurrence_terms(lox[d], layer.terms);
        max_occ = std::max(max_occ, lox[d]);
      }
      // Pass 3: prefix sum, then aggregate terms on the running total.
      for (std::size_t d = 1; d < k; ++d) lox[d] += lox[d - 1];
      for (std::size_t d = 0; d < k; ++d) {
        lox[d] = apply_aggregate_terms(lox[d], layer.terms);
      }
      // Pass 4: back to marginal losses, summed into the year loss.
      for (std::size_t d = k; d-- > 1;) lox[d] -= lox[d - 1];
      Real annual = Real(0);
      for (std::size_t d = 0; d < k; ++d) annual += lox[d];
      ylt.annual_loss(a, t) = static_cast<double>(annual);
      ylt.max_occurrence_loss(a, t) = static_cast<double>(max_occ);
    }
  }
  return ylt;
}

}  // namespace ara
