// Declarative metric query plan and its result shape.
//
// The paper's whole computation exists to answer risk queries — PML,
// VaR/TVaR, AAL, AEP/OEP curves (Section I) — so the session's request
// surface describes *which* of those the caller wants, at caller-chosen
// probability levels and return periods, instead of two hard-coded
// booleans. A MetricsSpec is a pure description: the session decides
// whether to answer it from a materialized YLT or by streaming shard
// blocks through the reducers in core/metrics/streaming.hpp (the two
// paths agree bitwise on every metric; DESIGN.md §6).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ara::metrics {

/// Which derived risk metrics to compute, and at which points.
/// Everything defaults off; the presets `layer_summaries()`,
/// `portfolio_rollup()` and `all()` ask at p = 0.99, T = {100, 250}.
///
/// Memory note for streamed (kDiscard / kSpillToFile) runs: the
/// reducers keep one tail reservoir per requested sample, sized by the
/// deepest point in the spec — roughly (1 - min p) x trials entries
/// for quantiles and trials / min T for return periods — so a spec
/// that only asks about the tail streams in O(reservoir), not
/// O(trials). p = 0 or T close to 1 legitimately degrade to a full
/// per-layer sample (still never the layers x trials table).
struct MetricsSpec {
  bool per_layer = false;  ///< one LayerMetrics per portfolio layer
  bool portfolio = false;  ///< LayerMetrics of the per-trial layer sum

  /// VaR/TVaR probability levels, each in [0, 1] (e.g. 0.99, 0.995).
  std::vector<double> quantiles = {0.99};

  /// Return periods in years, each > 1: PML (aggregate, from annual
  /// losses) and OEP (occurrence, from per-trial maximum event losses)
  /// are reported at every listed period.
  std::vector<double> return_periods = {100.0, 250.0};

  /// When non-zero, each LayerMetrics carries the top `ep_curve_points`
  /// losses in descending order (the EP curve's tail: the k-th entry is
  /// the loss at return period trials / k years), for both the
  /// aggregate (annual) and occurrence samples.
  std::size_t ep_curve_points = 0;

  /// Portfolio scope only: also compute the TVaR diversification
  /// benefit and each layer's marginal TVaR contribution (capital
  /// allocation), at probability `capital_p`.
  bool capital_allocation = false;
  double capital_p = 0.99;

  /// True when any metric output is requested at all.
  bool any() const noexcept { return per_layer || portfolio; }

  /// Throws std::invalid_argument on out-of-range points.
  void validate() const {
    for (const double p : quantiles) {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(
            "MetricsSpec: quantile p must be in [0, 1]");
      }
    }
    for (const double t : return_periods) {
      if (!(t > 1.0)) {
        throw std::invalid_argument(
            "MetricsSpec: return period must be > 1 year");
      }
    }
    if (capital_allocation && !(capital_p >= 0.0 && capital_p <= 1.0)) {
      throw std::invalid_argument(
          "MetricsSpec: capital_p must be in [0, 1]");
    }
  }

  static MetricsSpec none() { return {}; }

  /// Both scopes at the preset points, capital allocation included.
  static MetricsSpec all() {
    MetricsSpec s;
    s.per_layer = true;
    s.portfolio = true;
    s.capital_allocation = true;
    return s;
  }

  /// Per-layer AAL/VaR99/TVaR99, PML and OEP at 100/250 years.
  static MetricsSpec layer_summaries() {
    MetricsSpec s;
    s.per_layer = true;
    return s;
  }

  /// Book-level tail figures plus diversification benefit and
  /// marginal TVaR at p = 0.99.
  static MetricsSpec portfolio_rollup() {
    MetricsSpec s;
    s.portfolio = true;
    s.capital_allocation = true;
    return s;
  }
};

/// VaR/TVaR at one requested probability level.
struct QuantileMetric {
  double p = 0.0;
  double var = 0.0;
  double tvar = 0.0;
};

/// Loss at one requested return period.
struct ReturnPeriodMetric {
  double years = 0.0;
  double loss = 0.0;
};

/// All metrics of one loss sample — a portfolio layer's annual losses
/// (plus its occurrence losses), or the per-trial portfolio sum.
struct LayerMetrics {
  std::string label;        ///< layer name, or "portfolio" for the rollup
  std::size_t trials = 0;

  double aal = 0.0;         ///< mean annual loss (the pure premium)
  double std_dev = 0.0;     ///< unbiased sample standard deviation
  double max_annual = 0.0;  ///< largest annual loss observed

  std::vector<QuantileMetric> quantiles;   ///< at MetricsSpec::quantiles
  std::vector<ReturnPeriodMetric> pml;     ///< aggregate EP (PML) points
  std::vector<ReturnPeriodMetric> oep;     ///< occurrence EP points

  /// Top losses descending (present when spec.ep_curve_points > 0).
  std::vector<double> aep_curve;
  std::vector<double> oep_curve;

  /// Point lookups; throw std::out_of_range when the point was not in
  /// the request's spec (metrics are computed, never interpolated
  /// after the fact).
  double var_at(double p) const { return quantile_at(p).var; }
  double tvar_at(double p) const { return quantile_at(p).tvar; }
  double pml_at(double years) const { return find_period(pml, years); }
  double oep_at(double years) const { return find_period(oep, years); }

  const QuantileMetric& quantile_at(double p) const {
    for (const QuantileMetric& q : quantiles) {
      if (q.p == p) return q;
    }
    throw std::out_of_range("LayerMetrics: quantile p=" + std::to_string(p) +
                            " was not requested in the MetricsSpec");
  }

 private:
  static double find_period(const std::vector<ReturnPeriodMetric>& points,
                            double years) {
    for (const ReturnPeriodMetric& r : points) {
      if (r.years == years) return r.loss;
    }
    throw std::out_of_range("LayerMetrics: return period " +
                            std::to_string(years) +
                            "yr was not requested in the MetricsSpec");
  }
};

/// Portfolio-scope result: the metrics of the per-trial layer sum plus
/// the capital-allocation figures when the spec asked for them.
struct PortfolioMetrics {
  LayerMetrics totals;  ///< label "portfolio"

  /// Sum of standalone layer TVaRs minus the portfolio TVaR, at
  /// `capital_p` (>= 0 for a coherent tail measure).
  double diversification_benefit_tvar = 0.0;
  /// Per-layer marginal TVaR at `capital_p`: portfolio TVaR minus the
  /// TVaR of the portfolio without that layer.
  std::vector<double> marginal_tvar;
  double capital_p = 0.0;
  bool capital_allocation = false;  ///< whether the two fields above are filled
};

/// Everything one MetricsSpec produced, plus the block accounting that
/// lets tests assert a streamed run never saw the full table.
struct MetricsReport {
  std::vector<LayerMetrics> layers;          ///< when spec.per_layer
  std::optional<PortfolioMetrics> portfolio; ///< when spec.portfolio

  /// How the metrics were fed: number of YLT blocks consumed and the
  /// largest single block, in trials. A monolithic computation is one
  /// block of all trials; a streamed kDiscard run consumes one block
  /// per shard, each no larger than the shard size.
  std::size_t blocks_consumed = 0;
  std::size_t max_block_trials = 0;

  /// Per-layer sample entries the reducers kept resident (reservoir
  /// high-water mark) — the "reservoir" in the O(shard + reservoir)
  /// memory bound.
  std::size_t reservoir_entries = 0;

  bool empty() const noexcept { return layers.empty() && !portfolio; }

  /// Metrics of the layer named `label`, or nullptr when per-layer
  /// metrics were not requested / no such layer exists.
  const LayerMetrics* layer(std::string_view label) const noexcept {
    for (const LayerMetrics& m : layers) {
      if (m.label == label) return &m;
    }
    return nullptr;
  }
};

}  // namespace ara::metrics
