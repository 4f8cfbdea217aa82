#include "core/metrics/stopping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/metrics/stats.hpp"
#include "synth/rng.hpp"

namespace ara::metrics {

namespace {

// Decorrelates the per-target bootstrap substreams: target k at sample
// size n draws from substream(seed + k * kTargetStride, n), so adding
// or reordering targets never perturbs another target's resamples.
constexpr std::uint64_t kTargetStride = 0x9e3779b97f4a7c15ULL;

double tvar_from_sorted(const std::vector<double>& sorted, double p) {
  // Mean of the upper tail {x : x >= VaR_p}, VaR_p the type-7
  // p-quantile — consistent with quantile()'s interpolation in that
  // the tail always contains at least one observation.
  const double var = quantile_sorted(sorted, p);
  const auto first =
      std::lower_bound(sorted.begin(), sorted.end(), var);
  const std::size_t tail = static_cast<std::size_t>(sorted.end() - first);
  if (tail == 0) return sorted.back();
  double sum = 0.0;
  for (auto it = first; it != sorted.end(); ++it) sum += *it;
  return sum / static_cast<double>(tail);
}

// A kVar/kTvar target's estimate on the ascending sample.
double order_statistic(const StoppingTarget& target,
                       const std::vector<double>& sorted) {
  return target.metric == StopMetric::kVar
             ? quantile_sorted(sorted, target.p)
             : tvar_from_sorted(sorted, target.p);
}

void validate_target(const StoppingTarget& target) {
  if (target.metric == StopMetric::kAal) return;
  if (!(target.p > 0.0 && target.p < 1.0)) {
    throw std::invalid_argument(
        std::string("stopping: ") + stop_metric_name(target.metric) +
        " quantile level must be in (0, 1)");
  }
}

}  // namespace

const char* stop_metric_name(StopMetric metric) {
  switch (metric) {
    case StopMetric::kAal:
      return "aal";
    case StopMetric::kVar:
      return "var";
    case StopMetric::kTvar:
      return "tvar";
  }
  return "?";
}

double z_for_confidence(double confidence) {
  if (!(confidence > 0.5 && confidence < 1.0)) {
    throw std::invalid_argument(
        "convergence: confidence must be in (0.5, 1)");
  }
  const double p = 0.5 + confidence / 2.0;  // two-sided
  // Beasley-Springer-Moro. With p > 0.75 always, x = p - 0.5 is
  // strictly positive: the central branch covers confidence <= 0.84
  // and the tail branch evaluates at r = 1 - p with a positive sign —
  // no lower-tail reflection is reachable from this entry point.
  const double a[4] = {2.50662823884, -18.61500062529, 41.39119773534,
                       -25.44106049637};
  const double b[4] = {-8.47351093090, 23.08336743743, -21.06224101826,
                       3.13082909833};
  const double c[9] = {0.3374754822726147, 0.9761690190917186,
                       0.1607979714918209, 0.0276438810333863,
                       0.0038405729373609, 0.0003951896511919,
                       0.0000321767881768, 0.0000002888167364,
                       0.0000003960315187};
  const double x = p - 0.5;
  if (x <= 0.42) {
    const double r = x * x;
    return x * (((a[3] * r + a[2]) * r + a[1]) * r + a[0]) /
           ((((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0);
  }
  double r = std::log(-std::log(1.0 - p));
  double out = c[0];
  double rk = 1.0;
  for (int k = 1; k < 9; ++k) {
    rk *= r;
    out += c[k] * rk;
  }
  return out;
}

void StoppingSpec::validate() const {
  if (targets.empty()) {
    throw std::invalid_argument("stopping: at least one target required");
  }
  bool needs_bootstrap = false;
  for (const StoppingTarget& target : targets) {
    validate_target(target);
    needs_bootstrap |= target.metric != StopMetric::kAal;
  }
  if (!(relative_tolerance > 0.0) || !std::isfinite(relative_tolerance)) {
    throw std::invalid_argument(
        "stopping: relative_tolerance must be finite and > 0");
  }
  if (!(confidence > 0.5 && confidence < 1.0)) {
    throw std::invalid_argument("stopping: confidence must be in (0.5, 1)");
  }
  if (!(wave_growth > 1.0) || !std::isfinite(wave_growth)) {
    throw std::invalid_argument(
        "stopping: wave_growth must be finite and > 1");
  }
  if (max_trials != 0 && min_trials > max_trials) {
    throw std::invalid_argument(
        "stopping: min_trials must not exceed max_trials");
  }
  if (needs_bootstrap && bootstrap_reps < 2) {
    throw std::invalid_argument(
        "stopping: at least 2 bootstrap reps required for var/tvar "
        "targets");
  }
}

TargetStatus evaluate_target(const StoppingTarget& target,
                             std::span<const double> losses, double z,
                             double relative_tolerance,
                             unsigned bootstrap_reps, std::uint64_t seed) {
  validate_target(target);
  if (losses.empty()) {
    throw std::invalid_argument("stopping: empty sample");
  }
  const std::size_t n = losses.size();
  TargetStatus status;
  status.target = target;
  status.trials = n;

  if (target.metric == StopMetric::kAal) {
    // The report's own exact sums: no sorted copy, and the estimate is
    // bitwise the AAL a report over the same trials carries.
    status.estimate = mean(losses);
    status.std_error = stddev(losses) / std::sqrt(static_cast<double>(n));
  } else {
    status.estimate = order_statistic(target, sorted_copy(losses));
    if (n > 1) {
      // Bootstrap SE, same estimator shape as quantile_convergence:
      // resample-with-replacement, rep-variance with the reps/(reps-1)
      // correction. Seeded by sample size so any evaluation of the same
      // prefix reproduces bitwise.
      synth::Xoshiro256StarStar rng(synth::substream(seed, n));
      double sum = 0.0, sum2 = 0.0;
      std::vector<double> resample(n);
      for (unsigned rep = 0; rep < bootstrap_reps; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
          resample[i] = losses[static_cast<std::size_t>(rng.next_below(n))];
        }
        std::sort(resample.begin(), resample.end());
        const double q = order_statistic(target, resample);
        sum += q;
        sum2 += q * q;
      }
      const double m = sum / bootstrap_reps;
      const double var =
          std::max(0.0, sum2 / bootstrap_reps - m * m) *
          (static_cast<double>(bootstrap_reps) / (bootstrap_reps - 1.0));
      status.std_error = std::sqrt(var);
    }
  }

  status.half_width = z * status.std_error;
  if (status.estimate != 0.0) {
    status.relative_half_width = status.half_width / std::abs(status.estimate);
  } else {
    status.relative_half_width =
        status.half_width == 0.0 ? 0.0
                                 : std::numeric_limits<double>::infinity();
  }
  // A single trial can't bound its own spread, whatever the tolerance.
  status.satisfied =
      n >= 2 && status.relative_half_width <= relative_tolerance;
  return status;
}

std::vector<TargetStatus> evaluate_stopping(const StoppingSpec& spec,
                                            std::span<const double> losses) {
  spec.validate();
  const double z = z_for_confidence(spec.confidence);
  std::vector<TargetStatus> out;
  out.reserve(spec.targets.size());
  for (std::size_t k = 0; k < spec.targets.size(); ++k) {
    out.push_back(evaluate_target(spec.targets[k], losses, z,
                                  spec.relative_tolerance,
                                  spec.bootstrap_reps,
                                  spec.seed + k * kTargetStride));
  }
  return out;
}

std::size_t adaptive_wave_trials(const StoppingSpec& spec,
                                 std::size_t total_trials,
                                 std::size_t block_trials) {
  const std::size_t budget = spec.budget(total_trials);
  const std::size_t wave = block_trials != 0 && block_trials < total_trials
                               ? block_trials
                               : (budget + 15) / 16;
  return std::max<std::size_t>(1, std::min(wave, budget));
}

std::size_t next_frontier(const StoppingSpec& spec, std::size_t total_trials,
                          std::size_t wave_trials, std::size_t frontier) {
  const std::size_t budget = spec.budget(total_trials);
  const std::size_t wave =
      std::max<std::size_t>(1, std::min(wave_trials, budget));
  // Round up to a whole wave, saturating at the budget.
  const auto clamp_to_wave = [&](std::size_t trials) {
    if (trials >= budget) return budget;
    const std::size_t waves = (trials + wave - 1) / wave;
    if (waves > budget / wave) return budget;
    return std::min(budget, waves * wave);
  };
  if (frontier == 0) {
    return clamp_to_wave(std::max<std::size_t>(spec.min_trials, 1));
  }
  // Geometric growth, forced past the current frontier, wave-aligned.
  const double grown =
      std::ceil(static_cast<double>(frontier) * spec.wave_growth);
  std::size_t next =
      grown >= static_cast<double>(budget)
          ? budget
          : std::max(frontier + 1, static_cast<std::size_t>(grown));
  next = clamp_to_wave(next);
  if (next <= frontier) next = clamp_to_wave(frontier + 1);
  return next;
}

AdaptiveController::AdaptiveController(StoppingSpec spec,
                                       std::size_t total_trials,
                                       std::size_t wave_trials)
    : spec_(std::move(spec)) {
  spec_.validate();
  if (total_trials == 0) {
    throw std::invalid_argument("stopping: workload has no trials");
  }
  max_ = spec_.budget(total_trials);
  wave_ = std::clamp<std::size_t>(wave_trials, 1, max_);
  // max_ is its own budget, so it stands in for the workload size.
  frontier_ = next_frontier(spec_, max_, wave_, 0);
  losses_.resize(frontier_);
}

void AdaptiveController::observe(std::size_t trial_begin,
                                 std::span<const double> losses) {
  if (trial_begin + losses.size() > frontier_) {
    throw std::logic_error(
        "AdaptiveController: observed block [" +
        std::to_string(trial_begin) + ", " +
        std::to_string(trial_begin + losses.size()) +
        ") reaches past the granted frontier " + std::to_string(frontier_));
  }
  std::copy(losses.begin(), losses.end(), losses_.begin() + trial_begin);
  observed_ += losses.size();
}

void AdaptiveController::advance() {
  if (stopped_ || !at_barrier()) return;
  statuses_ = evaluate_stopping(spec_, sample());
  bool all = true;
  for (const TargetStatus& status : statuses_) all &= status.satisfied;
  if (all || frontier_ == max_) {
    stopped_ = true;
    converged_ = all;
    return;
  }
  frontier_ = next_frontier(spec_, max_, wave_, frontier_);
  losses_.resize(frontier_);
}

}  // namespace ara::metrics
