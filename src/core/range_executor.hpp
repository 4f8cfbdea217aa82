// The one trial-range execution loop (DESIGN.md §5).
//
// Trials are independent, so a workload splits into trial ranges that
// are priced anywhere and reassembled bitwise. Every execution mode is
// a case of one loop over that split:
//
//   * monolithic  — the one-range plan;
//   * fixed-trial — one wave over the whole plan;
//   * adaptive    — the stopping controller's frontier, wave by wave;
//   * distributed — the same loop over a lease-fleet executor.
//
// A RangeExecutor only runs ranges: the session's shard pool is one,
// the lease coordinator (dist/coordinator.hpp) the other. run_ranges()
// owns everything after the engine call: request validation, the
// adaptive controller, the shard merger, the metric reducer and spill
// sinks, the cost-only replay, metrics, spill close and retention.
#pragma once

#include <functional>
#include <vector>

#include "core/analysis_request.hpp"
#include "core/shard.hpp"

namespace ara {

/// Runs the trial ranges of one analysis somewhere and hands back their
/// partial results.
class RangeExecutor {
 public:
  /// Receives one completed partial and returns the ranges to run next
  /// (empty except at an adaptive wave barrier). Thread-safe.
  using Accept = std::function<std::vector<TrialRange>(SimulationResult&&)>;

  virtual ~RangeExecutor() = default;

  /// Executes each range exactly once and hands every partial to
  /// `accept`, from any thread and in any order; executes the ranges an
  /// accept call returns the same way. Returns once every range,
  /// returned ones included, has been accepted. Throws the first
  /// failure naming its trial range (a lone range run on the calling
  /// thread may let its failure propagate as thrown); DeadlineExceeded
  /// passes through unwrapped.
  virtual void run(std::vector<TrialRange> ranges, const Accept& accept) = 0;

  /// Whether each partial is the engine's whole SimulationResult, phase
  /// breakdowns included. run_ranges() then adopts a one-range run's
  /// block as the result: no merge copy, no replay. A fleet's partials
  /// are decoded wire blocks carrying only the merge accounting, so its
  /// runs are always merged and replayed.
  virtual bool partials_complete() const { return true; }
};

/// Throws std::invalid_argument when `request` cannot run: an invalid
/// metric spec or stopping spec, a spill without a path, a spill or an
/// adaptive run without a simulation to feed it, an adaptive run with
/// reinstatement pricing or spilling, or an adaptive run over a
/// portfolio without layers.
void validate_request(const AnalysisRequest& request);

/// Runs the simulation of `request` (portfolio and YET required) through
/// `executor`: validates the request before any work, issues the
/// ranges — every shard of `plan` for a fixed run, the stopping
/// controller's frontier in adaptive waves of `plan.shard_trials` —
/// and folds every accepted block into the merger, the metric reducer,
/// the spill writer and the controller. Multi-range runs finish with
/// `engine`'s cost-only replay over the executed trials, so ops and
/// simulated time are bitwise the monolithic run's. Fills every
/// simulation field of the result; the caller adds the engine choice
/// and extension results.
AnalysisResult run_ranges(const AnalysisRequest& request,
                          const Engine& engine, const ShardPlan& plan,
                          RangeExecutor& executor);

}  // namespace ara
