// Streaming metric reducers: answer a MetricsSpec from YLT trial
// blocks without ever holding the layers x trials table (DESIGN.md §6).
//
// The reduction splits the spec into two families:
//
//   * Order statistics (VaR/TVaR/PML/OEP/EP-curve/max) come from a
//     TailReservoir per sample — an exact top-K multiset sized by the
//     deepest point in the spec, with a tie ledger for values evicted
//     at the final boundary. The finalized values are *bitwise* equal
//     to computing the same formulas on the full sorted sample: the
//     top-K multiset is identical, the descending summation order is
//     identical, and boundary ties are replayed from the ledger.
//
//   * Mean statistics (AAL, standard deviation) come from one
//     ExactMoments per sample (core/metrics/stats.hpp): exact Σx and
//     Σx², rounded once at finish. They depend only on the multiset of
//     trial losses, so every block plan and completion order — and the
//     monolithic single block — finishes to the same bits.
//
// Memory: O(layers x reservoir) — the reservoir depth is
// (1 - min p) x trials for quantiles and trials / min T for return
// periods, so a tail-focused spec streams a million-trial workload in
// kilobytes per layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/disjoint_ranges.hpp"
#include "core/metrics/metrics_spec.hpp"
#include "core/metrics/stats.hpp"
#include "core/ylt.hpp"

namespace ara::metrics {

/// Exact top-`capacity` multiset of a streamed sample, plus a ledger of
/// how many values were dropped at the highest dropped value. That
/// ledger is what makes boundary ties exact: any dropped value equal to
/// a final threshold t must equal the ledger value (dropped values
/// never exceed the reservoir floor, and the floor never decreases), so
/// the full count and sum of {x : x >= t} is reconstructible whenever
/// t >= the ledger value — which reservoir sizing guarantees for every
/// requested point.
class TailReservoir {
 public:
  explicit TailReservoir(std::size_t capacity) : capacity_(capacity) {}

  void insert(double x);

  std::size_t size() const noexcept { return heap_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// True once any value has been dropped (sample exceeded capacity).
  bool overflowed() const noexcept { return dropped_; }
  /// Largest dropped value and how many times exactly it was dropped.
  double drop_ceiling() const noexcept { return drop_max_; }
  std::uint64_t drop_ceiling_ties() const noexcept { return drop_ties_; }

  /// The retained values, sorted descending (the tail of the sample).
  std::vector<double> sorted_descending() const;

 private:
  void drop(double v);

  std::size_t capacity_;
  std::vector<double> heap_;  ///< min-heap: heap_.front() is the floor
  bool dropped_ = false;
  double drop_max_ = 0.0;
  std::uint64_t drop_ties_ = 0;
};

/// Streaming reducer for one MetricsSpec over a fixed workload shape.
/// Feed every trial block exactly once (any order, concurrent callers
/// welcome — consume() serializes internally), then call finish() once.
/// Implements YltBlockSink so ShardMerger can stream shard results
/// straight in (core/shard.hpp).
class StreamingMetricsReducer : public YltBlockSink {
 public:
  /// `layer_labels` names the YLT's layers (one LayerMetrics::label
  /// each); `trial_count` is the full workload's trial count — blocks
  /// must tile exactly that range. The spec is validated here.
  StreamingMetricsReducer(std::vector<std::string> layer_labels,
                          std::size_t trial_count, MetricsSpec spec);

  /// Consumes one block (all layers, trials [trial_begin,
  /// trial_begin + block.trial_count())). Thread-safe: the range is
  /// reserved up front (overlapping or duplicate blocks throw — a
  /// double-counted tail is silently wrong, so it must be loud), and
  /// the reduction work itself runs under per-sample locks, so
  /// concurrent shard completions reduce different samples in
  /// parallel instead of serialising on one global mutex.
  void consume(const Ylt& block, std::size_t trial_begin) override;

  /// Finalizes the report. Throws std::logic_error unless the consumed
  /// blocks covered exactly trial_count trials, or when called twice.
  MetricsReport finish();

  /// Prefix finalization for adaptive runs: finalizes over exactly the
  /// first `covered_trials` trials, which the consumed blocks must tile
  /// gaplessly. Reservoirs sized for the full workload are exact for
  /// any prefix — every depth formula is monotone non-decreasing in the
  /// sample size — so an early-stopped run pays nothing for the unused
  /// budget. finish() is finish(trial_count).
  MetricsReport finish(std::size_t covered_trials);

 private:
  /// One streamed sample: the tail reservoir plus, for a sample whose
  /// AAL/std_dev is reported, its exact mean-family sums. Each sample
  /// carries its own lock so concurrent blocks contend per sample, not
  /// globally (the mutex lives behind a pointer to keep the
  /// accumulator movable).
  struct SampleAccumulator {
    SampleAccumulator(std::size_t reservoir_capacity, bool mean_stats)
        : tail(reservoir_capacity),
          moments(mean_stats ? std::make_unique<ExactMoments>() : nullptr),
          mutex(std::make_unique<std::mutex>()) {}
    TailReservoir tail;
    std::unique_ptr<ExactMoments> moments;  ///< null: no mean stats
    std::unique_ptr<std::mutex> mutex;

    void add_block(const double* values, std::size_t n);
  };

  /// The per-sample reduction of one reserved block (runs outside the
  /// global lock; add_block locks each sample).
  void consume_block(const Ylt& block);

  /// `desc` is acc's tail already sorted descending — sorted once by
  /// finish() because several consumers share it (per-layer metrics,
  /// standalone TVaRs for the diversification benefit). `n` is the
  /// finalized sample size: the full trial count normally, the covered
  /// prefix for an adaptive run.
  LayerMetrics finalize_sample(const SampleAccumulator& acc,
                               const std::vector<double>& desc,
                               std::string label, std::size_t n) const;

  MetricsSpec spec_;
  std::vector<std::string> labels_;
  std::size_t trial_count_;

  std::mutex mutex_;
  DisjointRangeSet ranges_;
  std::size_t covered_ = 0;
  std::size_t blocks_consumed_ = 0;
  std::size_t max_block_trials_ = 0;
  bool finished_ = false;

  // Per-layer annual samples: present when the spec asks for per-layer
  // metrics, or for capital allocation (standalone layer TVaRs).
  std::vector<SampleAccumulator> layer_annual_;
  // Per-layer occurrence samples (per-layer scope only).
  std::vector<SampleAccumulator> layer_occurrence_;
  // Portfolio scope: the per-trial layer sum, and one leave-one-out
  // sample per layer for marginal TVaR.
  std::vector<SampleAccumulator> portfolio_;      ///< size 0 or 1
  std::vector<SampleAccumulator> leave_one_out_;  ///< size 0 or layers
};

/// Metrics of a fully materialized YLT: the monolithic answer the
/// streamed one is tested against. Implemented as the reducer fed one
/// block covering every trial, so both paths share one formula set and
/// the mean family is bitwise the classic mean()/stddev().
MetricsReport compute_metrics(const Ylt& ylt,
                              std::vector<std::string> layer_labels,
                              const MetricsSpec& spec);

}  // namespace ara::metrics
