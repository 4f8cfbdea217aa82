#include "core/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ara {

double shard_bytes_per_trial(std::size_t layer_count,
                             double mean_events_per_trial) {
  return mean_events_per_trial * sizeof(EventOccurrence) +
         sizeof(std::size_t) +
         static_cast<double>(layer_count) * 2 * sizeof(double);
}

ShardPlan plan_shards(std::size_t total_trials, std::size_t shard_trials,
                      std::size_t memory_budget_bytes,
                      double bytes_per_trial) {
  ShardPlan plan;
  plan.total_trials = total_trials;
  if (shard_trials > 0) {
    plan.shard_trials = shard_trials;
  } else if (memory_budget_bytes > 0 && bytes_per_trial > 0.0) {
    const auto fit = static_cast<std::size_t>(
        static_cast<double>(memory_budget_bytes) / bytes_per_trial);
    plan.shard_trials = std::max<std::size_t>(1, fit);
  } else {
    plan.shard_trials = total_trials;  // single monolithic shard
  }
  return plan;
}

std::vector<TrialRange> ShardPlan::ranges() const {
  std::vector<TrialRange> out(shard_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = shard(i);
  return out;
}

std::vector<TrialRange> shard_ranges(std::size_t begin, std::size_t end,
                                     std::size_t shard_trials) {
  std::vector<TrialRange> ranges;
  if (end <= begin) return ranges;
  const std::size_t size = shard_trials == 0 ? end - begin : shard_trials;
  ranges.reserve((end - begin + size - 1) / size);
  for (std::size_t b = begin; b < end; b += size) {
    ranges.push_back({b, std::min(b + size, end)});
  }
  return ranges;
}

ShardMerger::ShardMerger(std::size_t layer_count, std::size_t trial_count,
                         YltBlockSink* sink, bool materialize)
    : layer_count_(layer_count),
      trial_count_(trial_count),
      sink_(sink),
      materialize_(materialize) {
  // A non-materializing merger is the whole point of the streaming
  // retention modes: the layers x trials table is never allocated.
  if (materialize_) merged_.ylt = Ylt(layer_count, trial_count);
}

namespace {

std::string range_str(std::size_t begin, std::size_t end) {
  return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
}

}  // namespace

void ShardMerger::add(const SimulationResult& partial) {
  const std::size_t begin = partial.trial_begin;
  const std::size_t end = begin + partial.ylt.trial_count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Validate shape, bounds and disjointness before recording, so
    // the copy below cannot throw and overlapping shards (which would
    // silently double-count ops) are rejected. Rejections name the
    // offending trial range: when the shards come from remote workers
    // the range is the only handle the operator has on which lease
    // went wrong.
    if (partial.ylt.layer_count() != layer_count_) {
      throw std::invalid_argument(
          "ShardMerger::add: layer count mismatch for shard " +
          range_str(begin, end) + ": got " +
          std::to_string(partial.ylt.layer_count()) + ", expected " +
          std::to_string(layer_count_));
    }
    if (end > trial_count_) {
      throw std::invalid_argument(
          "ShardMerger::add: shard " + range_str(begin, end) +
          " out of bounds for " + std::to_string(trial_count_) + " trials");
    }
    if (!blocks_.try_reserve(begin, end)) {
      throw std::logic_error("ShardMerger::add: shard " +
                             range_str(begin, end) +
                             " overlaps an already-merged shard");
    }
    merged_.ops += partial.ops;
    merged_.wall_seconds += partial.wall_seconds;
    merged_.measured_phases += partial.measured_phases;
    if (first_) {
      merged_.engine_name = partial.engine_name;
      merged_.devices = partial.devices;
      first_ = false;
    }
  }
  // The O(layers x rows) copy and the sink call run outside the lock:
  // the range was reserved above, so concurrent adds handle disjoint
  // rows and shard completions do not serialise on each other (the
  // sink serialises itself if it must).
  if (materialize_) {
    merged_.ylt.merge_trial_block(partial.ylt, partial.trial_begin);
  }
  if (sink_ != nullptr) sink_->consume(partial.ylt, partial.trial_begin);
  // Coverage advances only after the copy/sink lands, so
  // merged_trials() reaching trial_count (and finish() succeeding)
  // implies every row is fully written and every block fully consumed
  // — a poller can never move the result out from under an in-flight
  // copy.
  std::lock_guard<std::mutex> lock(mutex_);
  covered_ += partial.ylt.trial_count();
}

std::size_t ShardMerger::merged_trials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return covered_;
}

SimulationResult ShardMerger::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (covered_ != trial_count_) {
    // Name the holes: a distributed run that lost a lease needs to
    // know *which* trials never arrived, not just how many.
    std::string gaps;
    std::size_t listed = 0;
    blocks_.for_each_gap(trial_count_, [&](std::size_t begin,
                                           std::size_t end) {
      if (listed == 8) {
        gaps += ", ...";
      } else if (listed < 8) {
        if (!gaps.empty()) gaps += ", ";
        gaps += range_str(begin, end);
      }
      ++listed;
    });
    throw std::logic_error(
        "ShardMerger::finish: shards cover " + std::to_string(covered_) +
        " of " + std::to_string(trial_count_) + " trials; missing " + gaps);
  }
  return std::move(merged_);
}

}  // namespace ara
