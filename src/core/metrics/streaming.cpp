#include "core/metrics/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace ara::metrics {

namespace {

// ---- Finalization formulas -------------------------------------------------
//
// Each helper replicates the arithmetic of the classic full-sample
// implementation (stats.cpp / risk_measures.cpp) expression for
// expression, evaluated on the descending tail instead of the sorted
// full sample — that is what makes the streamed values bitwise equal
// to the monolithic ones. The ascending order statistic v[j] of an
// n-sample lives at desc[n - 1 - j].

// Depth-from-top the type-7 quantile at p needs resident: quantile_sorted
// reads ascending indices floor(h) and floor(h) + 1 with h = p * (n - 1),
// and the shallower of the two is implied by the deeper.
std::size_t quantile_depth(std::size_t n, double p) {
  const double h = p * (static_cast<double>(n) - 1.0);
  const auto lo = static_cast<std::size_t>(h);
  return n - lo;
}

// The 1-based rank EpCurve::loss_at_return_period reads.
std::size_t period_rank(std::size_t n, double years) {
  const double nn = static_cast<double>(n);
  return static_cast<std::size_t>(
      std::min(nn, std::max(1.0, std::floor(nn / years))));
}

// quantile_sorted (stats.cpp), reading the two order statistics out of
// the descending tail.
double quantile_from_tail(const std::vector<double>& desc, std::size_t n,
                          double p) {
  const double h = p * (static_cast<double>(n) - 1.0);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  const std::size_t di_lo = n - 1 - lo;
  if (di_lo >= desc.size()) {
    throw std::logic_error(
        "streaming metrics: tail reservoir undersized for quantile");
  }
  const double vlo = desc[di_lo];
  const double vhi = desc[n - 1 - hi];
  return vlo + frac * (vhi - vlo);
}

// tail_value_at_risk's descending scan (risk_measures.cpp): sum values
// >= var top-down, then replay the boundary ties the reservoir dropped.
// Dropped values never exceed the reservoir floor, and var sits at a
// resident rank, so var >= drop_ceiling always; equality means the
// dropped ties belong to the tail and are re-added exactly (equal
// values at the end of the descending scan, as the monolithic loop
// would have added them).
double tail_mean_from(const std::vector<double>& desc,
                      const TailReservoir& reservoir, double var) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const double v : desc) {
    if (v < var) break;
    sum += v;
    ++count;
  }
  if (reservoir.overflowed() && var <= reservoir.drop_ceiling()) {
    if (var < reservoir.drop_ceiling()) {
      throw std::logic_error(
          "streaming metrics: tail reservoir undersized for TVaR");
    }
    for (std::uint64_t i = 0; i < reservoir.drop_ceiling_ties(); ++i) {
      sum += var;
    }
    count += reservoir.drop_ceiling_ties();
  }
  return count == 0 ? var : sum / static_cast<double>(count);
}

// EpCurve::loss_at_return_period (risk_measures.cpp): the k-th largest.
double loss_at_return_period_from_tail(const std::vector<double>& desc,
                                       std::size_t n, double years) {
  const std::size_t k = period_rank(n, years);
  if (k - 1 >= desc.size()) {
    throw std::logic_error(
        "streaming metrics: tail reservoir undersized for return period");
  }
  return desc[k - 1];
}

}  // namespace

// ---- TailReservoir ---------------------------------------------------------

void TailReservoir::insert(double x) {
  if (heap_.size() < capacity_) {
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    return;
  }
  if (capacity_ > 0 && x > heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const double evicted = heap_.back();
    heap_.back() = x;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    drop(evicted);
  } else {
    drop(x);
  }
}

void TailReservoir::drop(double v) {
  // The ledger tracks the highest dropped value only: drops never
  // exceed the (non-decreasing) floor, so by the end every dropped
  // value that can still tie a threshold is exactly drop_max_.
  if (!dropped_ || v > drop_max_) {
    drop_max_ = v;
    drop_ties_ = 1;
  } else if (v == drop_max_) {
    ++drop_ties_;
  }
  dropped_ = true;
}

std::vector<double> TailReservoir::sorted_descending() const {
  std::vector<double> v = heap_;
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

// ---- StreamingMetricsReducer -----------------------------------------------

StreamingMetricsReducer::StreamingMetricsReducer(
    std::vector<std::string> layer_labels, std::size_t trial_count,
    MetricsSpec spec)
    : spec_(std::move(spec)),
      labels_(std::move(layer_labels)),
      trial_count_(trial_count) {
  spec_.validate();
  if (trial_count_ == 0) {
    throw std::invalid_argument(
        "StreamingMetricsReducer: metrics need at least one trial");
  }

  const std::size_t n = trial_count_;
  const auto clamp = [n](std::size_t d) {
    return std::min(std::max<std::size_t>(d, 1), n);
  };

  // Annual-sample depth: every requested quantile and PML point plus
  // the EP-curve tail; `capital` adds the capital-allocation level.
  const auto annual_depth = [&](bool spec_points, bool capital) {
    std::size_t d = 1;  // max_annual
    if (spec_points) {
      for (const double p : spec_.quantiles) {
        d = std::max(d, quantile_depth(n, p));
      }
      for (const double t : spec_.return_periods) {
        d = std::max(d, quantile_depth(n, 1.0 - 1.0 / t));
      }
      d = std::max(d, std::min(n, spec_.ep_curve_points));
    }
    if (capital) d = std::max(d, quantile_depth(n, spec_.capital_p));
    return clamp(d);
  };

  // SampleAccumulator owns a mutex, so the vectors are filled by
  // emplacement rather than copy-assign.
  const auto fill = [](std::vector<SampleAccumulator>& samples,
                       std::size_t count, std::size_t capacity,
                       bool mean_stats) {
    samples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      samples.emplace_back(capacity, mean_stats);
    }
  };

  const bool capital = spec_.portfolio && spec_.capital_allocation;
  if (spec_.per_layer || capital) {
    fill(layer_annual_, labels_.size(),
         annual_depth(spec_.per_layer, capital),
         /*mean_stats=*/spec_.per_layer);
  }
  if (spec_.per_layer) {
    std::size_t d = 1;
    for (const double t : spec_.return_periods) {
      d = std::max(d, period_rank(n, t));
    }
    d = std::max(d, std::min(n, spec_.ep_curve_points));
    fill(layer_occurrence_, labels_.size(), clamp(d), /*mean_stats=*/false);
  }
  if (spec_.portfolio) {
    fill(portfolio_, 1, annual_depth(true, capital), /*mean_stats=*/true);
    if (capital) {
      fill(leave_one_out_, labels_.size(),
           clamp(quantile_depth(n, spec_.capital_p)), /*mean_stats=*/false);
    }
  }
}

void StreamingMetricsReducer::SampleAccumulator::add_block(
    const double* values, std::size_t n) {
  // The block's exact sums are formed outside the sample lock and
  // merged under it; both steps are exact, so no block plan or
  // completion order can move a bit of the mean family.
  ExactMoments block;
  if (moments) block.add({values, n});
  std::lock_guard<std::mutex> lock(*mutex);
  for (std::size_t i = 0; i < n; ++i) tail.insert(values[i]);
  if (moments) moments->merge(block);
}

void StreamingMetricsReducer::consume(const Ylt& block,
                                      std::size_t trial_begin) {
  const std::size_t bt = block.trial_count();
  if (block.layer_count() != labels_.size()) {
    throw std::invalid_argument(
        "StreamingMetricsReducer: block layer count mismatch");
  }
  if (trial_begin + bt > trial_count_) {
    throw std::invalid_argument(
        "StreamingMetricsReducer: block out of range");
  }
  {
    // Reserve the range before reducing anything: an overlapping or
    // duplicate block would double-count tail values — silently wrong
    // metrics — so it is rejected loudly instead.
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) {
      throw std::logic_error("StreamingMetricsReducer: consume after finish");
    }
    if (!ranges_.try_reserve(trial_begin, trial_begin + bt)) {
      throw std::logic_error(
          "StreamingMetricsReducer: overlapping block");
    }
  }

  // The reduction itself runs outside the global lock — concurrent
  // blocks contend per sample (add_block locks the accumulator), so
  // shard completions reduce different samples in parallel.
  if (bt > 0) consume_block(block);

  // Coverage advances only after the block is fully reduced, so
  // finish() succeeding implies every sample saw every row.
  std::lock_guard<std::mutex> lock(mutex_);
  ++blocks_consumed_;
  max_block_trials_ = std::max(max_block_trials_, bt);
  covered_ += bt;
}

void StreamingMetricsReducer::consume_block(const Ylt& block) {
  const std::size_t bt = block.trial_count();
  for (std::size_t l = 0; l < labels_.size(); ++l) {
    if (!layer_annual_.empty()) {
      layer_annual_[l].add_block(block.layer_annual(l), bt);
    }
    if (!layer_occurrence_.empty()) {
      layer_occurrence_[l].add_block(block.layer_max_occurrence(l), bt);
    }
  }

  if (!portfolio_.empty()) {
    // Per-trial layer sum, layers outer — the association
    // portfolio_trial_losses uses, so every per-trial value is bitwise
    // the monolithic one.
    std::vector<double> sums(bt, 0.0);
    for (std::size_t l = 0; l < labels_.size(); ++l) {
      const double* row = block.layer_annual(l);
      for (std::size_t t = 0; t < bt; ++t) sums[t] += row[t];
    }
    portfolio_[0].add_block(sums.data(), bt);
    if (!leave_one_out_.empty()) {
      std::vector<double> without(bt);
      for (std::size_t l = 0; l < labels_.size(); ++l) {
        const double* row = block.layer_annual(l);
        for (std::size_t t = 0; t < bt; ++t) without[t] = sums[t] - row[t];
        leave_one_out_[l].add_block(without.data(), bt);
      }
    }
  }
}

LayerMetrics StreamingMetricsReducer::finalize_sample(
    const SampleAccumulator& acc, const std::vector<double>& desc,
    std::string label, std::size_t n) const {
  LayerMetrics m;
  m.label = std::move(label);
  m.trials = n;

  m.aal = acc.moments->mean();
  m.std_dev = acc.moments->stddev();

  if (!desc.empty()) m.max_annual = desc.front();

  m.quantiles.reserve(spec_.quantiles.size());
  for (const double p : spec_.quantiles) {
    QuantileMetric q;
    q.p = p;
    q.var = quantile_from_tail(desc, n, p);
    q.tvar = tail_mean_from(desc, acc.tail, q.var);
    m.quantiles.push_back(q);
  }
  m.pml.reserve(spec_.return_periods.size());
  for (const double t : spec_.return_periods) {
    m.pml.push_back({t, quantile_from_tail(desc, n, 1.0 - 1.0 / t)});
  }
  if (spec_.ep_curve_points > 0) {
    const std::size_t k = std::min(spec_.ep_curve_points, desc.size());
    m.aep_curve.assign(desc.begin(),
                       desc.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return m;
}

MetricsReport StreamingMetricsReducer::finish() {
  return finish(trial_count_);
}

MetricsReport StreamingMetricsReducer::finish(std::size_t covered_trials) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) {
    throw std::logic_error("StreamingMetricsReducer: finish called twice");
  }
  if (covered_trials == 0 || covered_trials > trial_count_) {
    throw std::logic_error(
        "StreamingMetricsReducer: cannot finalize " +
        std::to_string(covered_trials) + " of " +
        std::to_string(trial_count_) + " trials");
  }
  if (covered_ != covered_trials) {
    throw std::logic_error(
        "StreamingMetricsReducer: blocks cover " + std::to_string(covered_) +
        " of " + std::to_string(covered_trials) + " trials");
  }
  // covered_ matching the prefix length is not enough: a block beyond
  // the prefix paired with a hole inside it would pass the count.
  bool gap = false;
  ranges_.for_each_gap(covered_trials,
                       [&](std::size_t, std::size_t) { gap = true; });
  if (gap) {
    throw std::logic_error(
        "StreamingMetricsReducer: consumed blocks do not tile the first " +
        std::to_string(covered_trials) + " trials");
  }
  finished_ = true;

  MetricsReport report;
  report.blocks_consumed = blocks_consumed_;
  report.max_block_trials = max_block_trials_;

  const std::size_t n = covered_trials;
  // Each reservoir is sorted exactly once; the descending tails are
  // shared by every consumer below.
  std::vector<std::vector<double>> annual_desc(layer_annual_.size());
  for (std::size_t l = 0; l < layer_annual_.size(); ++l) {
    annual_desc[l] = layer_annual_[l].tail.sorted_descending();
  }

  if (spec_.per_layer) {
    report.layers.reserve(labels_.size());
    for (std::size_t l = 0; l < labels_.size(); ++l) {
      LayerMetrics m =
          finalize_sample(layer_annual_[l], annual_desc[l], labels_[l], n);
      const std::vector<double> odesc =
          layer_occurrence_[l].tail.sorted_descending();
      m.oep.reserve(spec_.return_periods.size());
      for (const double t : spec_.return_periods) {
        m.oep.push_back({t, loss_at_return_period_from_tail(odesc, n, t)});
      }
      if (spec_.ep_curve_points > 0) {
        const std::size_t k = std::min(spec_.ep_curve_points, odesc.size());
        m.oep_curve.assign(odesc.begin(),
                           odesc.begin() + static_cast<std::ptrdiff_t>(k));
      }
      report.layers.push_back(std::move(m));
    }
  }

  if (spec_.portfolio) {
    PortfolioMetrics pm;
    const std::vector<double> pdesc =
        portfolio_[0].tail.sorted_descending();
    pm.totals = finalize_sample(portfolio_[0], pdesc, "portfolio", n);
    if (spec_.capital_allocation) {
      pm.capital_allocation = true;
      pm.capital_p = spec_.capital_p;
      const double pvar = quantile_from_tail(pdesc, n, spec_.capital_p);
      const double ptvar = tail_mean_from(pdesc, portfolio_[0].tail, pvar);
      double standalone = 0.0;
      for (std::size_t l = 0; l < labels_.size(); ++l) {
        const std::vector<double>& d = annual_desc[l];
        const double v = quantile_from_tail(d, n, spec_.capital_p);
        standalone += tail_mean_from(d, layer_annual_[l].tail, v);
      }
      pm.diversification_benefit_tvar = standalone - ptvar;
      pm.marginal_tvar.reserve(labels_.size());
      for (std::size_t l = 0; l < labels_.size(); ++l) {
        const std::vector<double> d =
            leave_one_out_[l].tail.sorted_descending();
        const double v = quantile_from_tail(d, n, spec_.capital_p);
        pm.marginal_tvar.push_back(
            ptvar - tail_mean_from(d, leave_one_out_[l].tail, v));
      }
    }
    report.portfolio = std::move(pm);
  }

  std::size_t entries = 0;
  for (const auto& a : layer_annual_) entries += a.tail.size();
  for (const auto& a : layer_occurrence_) entries += a.tail.size();
  for (const auto& a : portfolio_) entries += a.tail.size();
  for (const auto& a : leave_one_out_) entries += a.tail.size();
  report.reservoir_entries = entries;
  return report;
}

MetricsReport compute_metrics(const Ylt& ylt,
                              std::vector<std::string> layer_labels,
                              const MetricsSpec& spec) {
  StreamingMetricsReducer reducer(std::move(layer_labels),
                                  ylt.trial_count(), spec);
  reducer.consume(ylt, 0);
  return reducer.finish();
}

}  // namespace ara::metrics
