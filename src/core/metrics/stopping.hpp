// Confidence-driven early stopping for Monte-Carlo pricing runs
// (DESIGN.md §10).
//
// The convergence module answers "how many trials would a target error
// need?" after the fact; this module closes the loop while a run is in
// flight. A StoppingSpec names the metrics whose confidence intervals
// must tighten (AAL, VaR, TVaR at chosen quantiles), the relative
// half-width tolerance, and the trial budget; an AdaptiveController
// turns that into a wave schedule — authorize a frontier of trials,
// observe the completed per-trial portfolio losses, and at each wave
// barrier either stop (every targeted interval inside tolerance, or
// the budget exhausted) or extend the frontier geometrically.
//
// Determinism contract: the stopping decision is a pure function of
// the spec and the observed loss prefix. Evaluation happens only at
// wave barriers (the frontier fully covered), the sample is assembled
// in trial order regardless of block completion order, and the
// bootstrap standard errors are seeded per (seed, target, n) — so an
// adaptive run is reproducible for a given seed and shard size, local
// or distributed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ara::metrics {

/// Which metric a stopping target (or a race objective) watches. All
/// three are evaluated on the per-trial portfolio annual loss.
enum class StopMetric {
  kAal,   ///< mean annual loss; SE = sd / sqrt(n) (CLT)
  kVar,   ///< p-quantile (type-7); SE bootstrapped
  kTvar,  ///< mean of losses >= VaR_p; SE bootstrapped
};

const char* stop_metric_name(StopMetric metric);

/// One targeted confidence interval.
struct StoppingTarget {
  StopMetric metric = StopMetric::kAal;
  double p = 0.99;  ///< quantile level (kVar/kTvar); ignored for kAal
};

/// The adaptive-mode contract: run until every target's confidence
/// interval has relative half-width <= `relative_tolerance` at
/// `confidence`, within [min_trials, max_trials].
struct StoppingSpec {
  std::vector<StoppingTarget> targets = {{StopMetric::kAal, 0.0}};
  double relative_tolerance = 0.05;  ///< half-width / |estimate|
  double confidence = 0.95;          ///< two-sided normal coverage
  std::size_t min_trials = 1000;     ///< never decide on less
  std::size_t max_trials = 0;        ///< hard budget; 0 = whole workload
  /// Geometric wave growth: each barrier extends the frontier to
  /// ~growth x the previous one (rounded up to whole waves). Must be
  /// > 1 so the schedule always makes progress.
  double wave_growth = 1.5;
  unsigned bootstrap_reps = 200;  ///< for the kVar/kTvar standard errors
  std::uint64_t seed = 12345;     ///< bootstrap determinism

  /// Throws std::invalid_argument on an unsatisfiable spec (no
  /// targets, tolerance/confidence/growth out of range, quantile
  /// levels outside (0, 1), too few bootstrap reps for a
  /// bootstrap-needing target).
  void validate() const;

  /// The trial budget on a workload of `total_trials`: max_trials when
  /// set (capped at the workload), else the whole workload.
  std::size_t budget(std::size_t total_trials) const noexcept {
    return max_trials != 0 && max_trials < total_trials ? max_trials
                                                        : total_trials;
  }
};

/// Trials per adaptive wave: `block_trials` (the executor's shard or
/// lease size) when it splits the workload, else a sixteenth of the
/// budget so the schedule has room to stop early; clamped to
/// [1, budget].
std::size_t adaptive_wave_trials(const StoppingSpec& spec,
                                 std::size_t total_trials,
                                 std::size_t block_trials);

/// The geometric wave schedule shared by AdaptiveController and
/// AnalysisSession::race(): the frontier that follows `frontier`.
/// `frontier` = 0 asks for the first one, min_trials (at least one)
/// rounded up to whole waves; each later one grows the previous by
/// wave_growth, forced past it and rounded up to whole waves. Every
/// frontier is capped at the budget.
std::size_t next_frontier(const StoppingSpec& spec, std::size_t total_trials,
                          std::size_t wave_trials, std::size_t frontier);

/// One target's interval at the latest evaluation.
struct TargetStatus {
  StoppingTarget target;
  std::size_t trials = 0;
  double estimate = 0.0;
  double std_error = 0.0;
  double half_width = 0.0;  ///< z_for_confidence(conf) * std_error
  /// half_width / |estimate|; 0 when both are zero (a constant
  /// sample), +inf when only the estimate is.
  double relative_half_width = 0.0;
  bool satisfied = false;
};

/// Inverse normal CDF at two-sided coverage `confidence` in (0.5, 1):
/// z such that P(|N(0,1)| <= z) = confidence (0.95 -> 1.959964).
/// Beasley-Springer-Moro rational approximation, |error| < 1e-7 over
/// the confidence levels pricing uses. Shared by the convergence
/// module, the stopping rule, and the race's elimination bounds.
double z_for_confidence(double confidence);

/// One target's confidence interval on the per-trial portfolio losses
/// (the first `losses.size()` trials in trial order). `z` is the
/// critical value (callers adjust it for union bounds — the race
/// does); `relative_tolerance` only feeds the `satisfied` flag. A
/// sample of fewer than two trials is never satisfied: its spread is
/// unobservable. An AAL target reads its estimate and CLT error from
/// the prefix's exact sums (mean()/stddev(), no copy); only VaR/TVaR
/// targets sort a copy. Deterministic for (seed, losses).
TargetStatus evaluate_target(const StoppingTarget& target,
                             std::span<const double> losses, double z,
                             double relative_tolerance,
                             unsigned bootstrap_reps, std::uint64_t seed);

/// Every target of `spec` evaluated on the loss prefix; the order
/// matches spec.targets. Each target's bootstrap draws an independent
/// substream of spec.seed.
std::vector<TargetStatus> evaluate_stopping(const StoppingSpec& spec,
                                            std::span<const double> losses);

/// The wave scheduler and stopping oracle of every adaptive run, local
/// or distributed (core/range_executor.hpp drives it).
///
/// Protocol: the executor runs trials up to frontier(), feeds each
/// completed block's per-trial portfolio losses to observe() (any
/// completion order; blocks must be disjoint — the callers' merge
/// layers already enforce exactly-once), and calls advance() once the
/// frontier is fully observed. advance() evaluates the stopping rule
/// and either marks the run stopped or extends the frontier to the
/// next wave. Not thread-safe: callers synchronize externally (the
/// range loop holds its own mutex).
class AdaptiveController {
 public:
  /// `total_trials` bounds the budget (the workload's trial count);
  /// `wave_trials` is the granularity frontiers are rounded up to —
  /// the shard size locally, the lease size distributed.
  AdaptiveController(StoppingSpec spec, std::size_t total_trials,
                     std::size_t wave_trials);

  std::size_t frontier() const noexcept { return frontier_; }
  std::size_t observed() const noexcept { return observed_; }
  std::size_t max_trials() const noexcept { return max_; }
  std::size_t wave_trials() const noexcept { return wave_; }

  /// Every trial below the frontier has been observed — the only
  /// state advance() acts in.
  bool at_barrier() const noexcept { return observed_ == frontier_; }

  /// No further trials will be authorized. The frontier is then the
  /// run's final trial count.
  bool stopped() const noexcept { return stopped_; }
  /// Stopped with every target inside tolerance (as opposed to the
  /// budget running out first).
  bool converged() const noexcept { return converged_; }

  /// Records the per-trial portfolio losses of trials
  /// [trial_begin, trial_begin + losses.size()). Throws
  /// std::logic_error when the block reaches past the frontier — the
  /// executor ran trials it was never granted.
  void observe(std::size_t trial_begin, std::span<const double> losses);

  /// At a barrier: evaluates the stopping rule on [0, frontier()),
  /// records the per-target statuses, and either stops or extends the
  /// frontier. No-op when already stopped or off-barrier.
  void advance();

  /// Per-target statuses of the latest advance() evaluation (empty
  /// before the first barrier).
  const std::vector<TargetStatus>& statuses() const noexcept {
    return statuses_;
  }

  /// The observed loss prefix, in trial order.
  std::span<const double> sample() const noexcept {
    return {losses_.data(), observed_};
  }

 private:
  StoppingSpec spec_;
  std::size_t wave_ = 1;
  std::size_t max_ = 0;
  std::size_t frontier_ = 0;
  std::size_t observed_ = 0;
  bool stopped_ = false;
  bool converged_ = false;
  std::vector<double> losses_;
  std::vector<TargetStatus> statuses_;
};

}  // namespace ara::metrics
