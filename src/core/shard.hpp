// Trial sharding: the plan (how a trial range splits into shards) and
// the merge algebra (how partial SimulationResults reassemble into the
// monolithic one). See DESIGN.md §5.
//
// A YLT row is produced independently per trial, so the trial
// dimension is exactly concatenative: partial YLTs merge by block copy
// into disjoint row ranges, and per-shard operation counts are
// integers derived from the YET offset table, so contiguous shards sum
// *exactly* to the whole-YET counts. Both operations are associative
// and order-independent, which is what lets a scheduler merge shards
// in completion order and still produce a bitwise-identical result.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "core/disjoint_ranges.hpp"
#include "core/engine.hpp"

namespace ara {

/// How a trial range splits into contiguous shards: every shard has
/// `shard_trials` trials except possibly the last. `shard_trials >=
/// total_trials` (or 0) collapses to a single shard covering all
/// trials — the monolithic run is the one-shard special case.
struct ShardPlan {
  std::size_t total_trials = 0;
  std::size_t shard_trials = 0;

  std::size_t shard_count() const noexcept {
    if (total_trials == 0) return 1;
    if (shard_trials == 0 || shard_trials >= total_trials) return 1;
    return (total_trials + shard_trials - 1) / shard_trials;
  }

  /// The i-th shard's trial range (i < shard_count()).
  TrialRange shard(std::size_t i) const noexcept {
    const std::size_t size =
        shard_trials == 0 || shard_trials >= total_trials ? total_trials
                                                          : shard_trials;
    TrialRange r;
    r.begin = i * size;
    r.end = r.begin + size < total_trials ? r.begin + size : total_trials;
    return r;
  }

  /// Every shard's range, in trial order.
  std::vector<TrialRange> ranges() const;
};

/// Incremental plan extension: the contiguous shards tiling
/// [begin, end) at `shard_trials` trials each (the last may be short;
/// `shard_trials == 0` means one shard for the whole range). Empty for
/// an empty range. Adaptive waves use this to extend an in-flight plan
/// from the previous frontier to the next without re-planning the
/// already-executed prefix.
std::vector<TrialRange> shard_ranges(std::size_t begin, std::size_t end,
                                     std::size_t shard_trials);

/// Resident bytes one trial of a workload costs while its shard is in
/// flight: the YET slice (occurrence records + one offset) plus the
/// YLT rows it produces (annual + max-occurrence doubles per layer).
/// The input of memory-budgeted shard sizing.
double shard_bytes_per_trial(std::size_t layer_count,
                             double mean_events_per_trial);

/// Builds the plan for `total_trials`: an explicit `shard_trials`
/// wins; otherwise a non-zero `memory_budget_bytes` derives the
/// largest shard whose resident bytes fit the budget (never below one
/// trial); otherwise the plan is a single monolithic shard.
ShardPlan plan_shards(std::size_t total_trials, std::size_t shard_trials,
                      std::size_t memory_budget_bytes,
                      double bytes_per_trial);

/// Streaming merge of partial SimulationResults into the monolithic
/// one. Thread-safe: shards may be added from concurrent workers in
/// any completion order — partial YLTs land in disjoint row ranges and
/// op counts are summed integers, so the merged result is independent
/// of the interleaving (property-tested).
///
/// Two orthogonal outputs per accepted shard, chosen at construction:
/// *materializing* the rows into the monolithic YLT (the default), and
/// *forwarding* the partial's YLT block to a YltBlockSink (streaming
/// metric reducers, a spill writer — core/metrics/streaming.hpp,
/// io/yet_chunk.hpp). A non-materializing merger never allocates the
/// layers x trials table: finish() still validates exact coverage and
/// returns the merged accounting, but with an empty YLT — the shape
/// metric-only (YltRetention::kDiscard / kSpillToFile) runs use. The
/// sink is invoked outside the merger's lock, once per accepted shard,
/// after the block's range has been reserved (so sinks only ever see
/// disjoint blocks); coverage advances only after both the copy and
/// the sink call complete.
///
/// The merge covers the concatenative state: YLT rows, op counts, and
/// the additive measurement bookkeeping (wall seconds, measured
/// phases). Simulated-time accounting is *not* summed here — per-shard
/// simulated times include real per-shard overhead (extra kernel
/// launches, partial-range launch shapes), so their sum is the cost of
/// the sharded execution, not of the monolithic run. Callers that need
/// the monolithic accounting replay it exactly with a cost-only engine
/// run over the full range (core/range_executor.hpp does; DESIGN.md §5).
class ShardMerger {
 public:
  /// Shape of the full result being assembled. `sink`, when non-null,
  /// receives every accepted block (it must tolerate concurrent calls;
  /// the caller keeps it alive until finish()). `materialize` = false
  /// skips the monolithic YLT entirely.
  ShardMerger(std::size_t layer_count, std::size_t trial_count,
              YltBlockSink* sink = nullptr, bool materialize = true);

  /// Merges one partial result at its recorded trial_begin. The
  /// partial's rows must not overlap rows already merged.
  void add(const SimulationResult& partial);

  /// Trials covered so far.
  std::size_t merged_trials() const;

  /// Moves the merged result out. Throws std::logic_error unless every
  /// trial row has been covered exactly once.
  SimulationResult finish();

 private:
  mutable std::mutex mutex_;
  SimulationResult merged_;
  DisjointRangeSet blocks_;
  std::size_t layer_count_ = 0;
  std::size_t trial_count_ = 0;
  std::size_t covered_ = 0;
  bool first_ = true;
  YltBlockSink* sink_ = nullptr;
  bool materialize_ = true;
};

}  // namespace ara
