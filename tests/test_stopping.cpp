#include "core/metrics/stopping.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/metrics/stats.hpp"
#include "synth/distributions.hpp"
#include "synth/rng.hpp"

// Heap allocations of at least g_watch_bytes, counted process-wide, so
// a test can show that a call makes no copy of a large sample.
namespace {
std::atomic<std::size_t> g_watch_bytes{~std::size_t{0}};
std::atomic<std::size_t> g_watched_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  if (bytes >= g_watch_bytes.load()) ++g_watched_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ara::metrics {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed,
                                     double cv = 1.0) {
  synth::Xoshiro256StarStar rng(seed);
  synth::LognormalSampler s =
      synth::LognormalSampler::from_mean_cv(1.0e6, cv);
  std::vector<double> out(n);
  for (double& x : out) x = s.sample(rng);
  return out;
}

// ---- z_for_confidence ------------------------------------------------

TEST(ZForConfidence, MatchesKnownCriticalValues) {
  // Reference values of Phi^{-1}((1 + conf) / 2) to full precision;
  // Beasley-Springer-Moro is good to ~1e-7 on this range.
  EXPECT_NEAR(z_for_confidence(0.90), 1.6448536269514722, 1e-6);
  EXPECT_NEAR(z_for_confidence(0.95), 1.959963984540054, 1e-6);
  EXPECT_NEAR(z_for_confidence(0.99), 2.5758293035489004, 1e-6);
  EXPECT_NEAR(z_for_confidence(0.999), 3.2905267314919255, 1e-6);
}

TEST(ZForConfidence, MonotoneInConfidence) {
  double prev = 0.0;
  for (const double c : {0.6, 0.8, 0.9, 0.95, 0.99, 0.995, 0.9999}) {
    const double z = z_for_confidence(c);
    EXPECT_GT(z, prev) << "confidence " << c;
    prev = z;
  }
}

TEST(ZForConfidence, RejectsOutOfRange) {
  EXPECT_THROW(z_for_confidence(0.5), std::invalid_argument);
  EXPECT_THROW(z_for_confidence(0.0), std::invalid_argument);
  EXPECT_THROW(z_for_confidence(1.0), std::invalid_argument);
  EXPECT_THROW(z_for_confidence(-0.95), std::invalid_argument);
}

// ---- StoppingSpec validation ----------------------------------------

TEST(StoppingSpec, ValidatesFields) {
  StoppingSpec spec;
  EXPECT_NO_THROW(spec.validate());

  StoppingSpec bad = spec;
  bad.targets.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.relative_tolerance = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.confidence = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.wave_growth = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.min_trials = 100;
  bad.max_trials = 50;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.targets = {{StopMetric::kVar, 1.0}};
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = spec;
  bad.targets = {{StopMetric::kTvar, 0.99}};
  bad.bootstrap_reps = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // An AAL-only spec never bootstraps, so one rep is acceptable there.
  bad.targets = {{StopMetric::kAal, 0.0}};
  EXPECT_NO_THROW(bad.validate());
}

// ---- evaluate_target -------------------------------------------------

TEST(EvaluateTarget, AalMatchesClosedForm) {
  const auto losses = lognormal_sample(5000, 1);
  double mean = 0.0;
  for (const double x : losses) mean += x;
  mean /= static_cast<double>(losses.size());
  const double z = z_for_confidence(0.95);
  const TargetStatus s =
      evaluate_target({StopMetric::kAal, 0.0}, losses, z, 0.05, 100, 7);
  // The trial-order double sum differs from the exact one by rounding
  // only; the estimate and its error are the report's own sums.
  EXPECT_NEAR(s.estimate, mean, 1e-6 * mean);
  EXPECT_EQ(s.estimate, metrics::mean(losses));
  EXPECT_EQ(s.std_error, metrics::stddev(losses) /
                             std::sqrt(static_cast<double>(losses.size())));
  EXPECT_GT(s.std_error, 0.0);
  EXPECT_DOUBLE_EQ(s.half_width, z * s.std_error);
  EXPECT_DOUBLE_EQ(s.relative_half_width, s.half_width / s.estimate);
}

TEST(EvaluateTarget, OnlyOrderStatisticTargetsCopyTheSample) {
  const auto losses = lognormal_sample(1 << 16, 6);
  const auto copies = [&](StopMetric metric) {
    g_watched_allocations = 0;
    g_watch_bytes = losses.size() * sizeof(double);
    const TargetStatus s =
        evaluate_target({metric, 0.99}, losses, 1.96, 0.05, 2, 3);
    g_watch_bytes = ~std::size_t{0};
    EXPECT_GT(s.estimate, 0.0);
    return g_watched_allocations.load();
  };
  EXPECT_EQ(copies(StopMetric::kAal), 0u);
  EXPECT_GT(copies(StopMetric::kVar), 0u);
  EXPECT_GT(copies(StopMetric::kTvar), 0u);
}

TEST(EvaluateTarget, ConstantSampleIsImmediatelySatisfied) {
  const std::vector<double> losses(100, 5.0);
  for (const StopMetric m :
       {StopMetric::kAal, StopMetric::kVar, StopMetric::kTvar}) {
    const TargetStatus s =
        evaluate_target({m, 0.99}, losses, 1.96, 0.01, 50, 7);
    EXPECT_DOUBLE_EQ(s.estimate, 5.0);
    EXPECT_DOUBLE_EQ(s.std_error, 0.0);
    EXPECT_DOUBLE_EQ(s.relative_half_width, 0.0);
    EXPECT_TRUE(s.satisfied) << stop_metric_name(m);
  }
}

TEST(EvaluateTarget, SingleTrialNeverSatisfied) {
  // n == 1 shows no spread at all; a zero half-width there must not
  // count as convergence.
  const std::vector<double> one = {42.0};
  const TargetStatus s =
      evaluate_target({StopMetric::kAal, 0.0}, one, 1.96, 0.5, 50, 7);
  EXPECT_FALSE(s.satisfied);
}

TEST(EvaluateTarget, BootstrapDeterministicPerSeed) {
  const auto losses = lognormal_sample(2000, 2);
  const StoppingTarget target{StopMetric::kTvar, 0.95};
  const TargetStatus a = evaluate_target(target, losses, 1.96, 0.05, 64, 9);
  const TargetStatus b = evaluate_target(target, losses, 1.96, 0.05, 64, 9);
  EXPECT_DOUBLE_EQ(a.std_error, b.std_error);
  const TargetStatus c = evaluate_target(target, losses, 1.96, 0.05, 64, 10);
  EXPECT_NE(a.std_error, c.std_error);
}

TEST(EvaluateTarget, TvarIsAtLeastVar) {
  const auto losses = lognormal_sample(4000, 3);
  const TargetStatus var =
      evaluate_target({StopMetric::kVar, 0.99}, losses, 1.96, 0.05, 64, 4);
  const TargetStatus tvar =
      evaluate_target({StopMetric::kTvar, 0.99}, losses, 1.96, 0.05, 64, 4);
  EXPECT_GE(tvar.estimate, var.estimate);
}

TEST(EvaluateStopping, IndependentSubstreamsPerTarget) {
  StoppingSpec spec;
  spec.targets = {{StopMetric::kVar, 0.95}, {StopMetric::kVar, 0.95}};
  const auto losses = lognormal_sample(1000, 4);
  const auto statuses = evaluate_stopping(spec, losses);
  ASSERT_EQ(statuses.size(), 2u);
  // Same target, different substream: identical estimates, distinct
  // bootstrap draws.
  EXPECT_DOUBLE_EQ(statuses[0].estimate, statuses[1].estimate);
  EXPECT_NE(statuses[0].std_error, statuses[1].std_error);
}

// ---- AdaptiveController ----------------------------------------------

TEST(AdaptiveController, WaveScheduleGrowsGeometrically) {
  StoppingSpec spec;
  spec.relative_tolerance = 1.0e-9;  // unreachable: exercise the schedule
  spec.min_trials = 100;
  spec.wave_growth = 2.0;
  AdaptiveController c(spec, 10000, 100);
  EXPECT_EQ(c.frontier(), 100u);

  const auto losses = lognormal_sample(10000, 5);
  std::vector<std::size_t> frontiers;
  while (!c.stopped()) {
    const std::size_t begin = c.observed();
    c.observe(begin, std::span<const double>(losses)
                         .subspan(begin, c.frontier() - begin));
    frontiers.push_back(c.frontier());
    c.advance();
  }
  // 100 -> 200 -> 400 -> ... -> 10000, each a whole number of waves.
  for (std::size_t i = 1; i < frontiers.size(); ++i) {
    EXPECT_GT(frontiers[i], frontiers[i - 1]);
    EXPECT_EQ(frontiers[i] % 100, 0u);
    EXPECT_LE(frontiers[i], 10000u);
  }
  EXPECT_EQ(c.frontier(), 10000u);
  EXPECT_TRUE(c.stopped());
  EXPECT_FALSE(c.converged());  // budget ran out, tolerance never met
}

TEST(AdaptiveController, ConstantLossStopsAtFirstBarrier) {
  StoppingSpec spec;
  spec.min_trials = 50;
  AdaptiveController c(spec, 100000, 50);
  const std::vector<double> wave(c.frontier(), 123.0);
  c.observe(0, wave);
  c.advance();
  EXPECT_TRUE(c.stopped());
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(c.frontier(), 50u);
  ASSERT_EQ(c.statuses().size(), 1u);
  EXPECT_TRUE(c.statuses()[0].satisfied);
}

TEST(AdaptiveController, OutOfOrderBlocksAssembleInTrialOrder) {
  StoppingSpec spec;
  spec.relative_tolerance = 1.0e-9;
  spec.min_trials = 4;
  AdaptiveController c(spec, 8, 4);
  const std::vector<double> tail = {3.0, 4.0};
  const std::vector<double> head = {1.0, 2.0};
  c.observe(2, tail);
  EXPECT_FALSE(c.at_barrier());
  c.observe(0, head);
  ASSERT_TRUE(c.at_barrier());
  const auto sample = c.sample();
  EXPECT_EQ(sample[0], 1.0);
  EXPECT_EQ(sample[3], 4.0);
}

TEST(AdaptiveController, RejectsBlocksPastTheFrontier) {
  StoppingSpec spec;
  spec.min_trials = 10;
  AdaptiveController c(spec, 1000, 10);
  const std::vector<double> block(11, 1.0);
  EXPECT_THROW(c.observe(0, block), std::logic_error);
  const std::vector<double> ok(5, 1.0);
  EXPECT_NO_THROW(c.observe(0, ok));
  EXPECT_THROW(c.observe(6, ok), std::logic_error);
}

TEST(AdaptiveController, AdvanceOffBarrierIsANoOp) {
  StoppingSpec spec;
  spec.min_trials = 10;
  AdaptiveController c(spec, 1000, 10);
  const std::vector<double> half(5, 1.0);
  c.observe(0, half);
  c.advance();
  EXPECT_FALSE(c.stopped());
  EXPECT_EQ(c.frontier(), 10u);
  EXPECT_TRUE(c.statuses().empty());
}

TEST(AdaptiveController, StoppingPointDeterministicForSeed) {
  const auto losses = lognormal_sample(50000, 6, 0.8);
  const auto run_once = [&losses]() {
    StoppingSpec spec;
    spec.relative_tolerance = 0.02;
    spec.min_trials = 500;
    AdaptiveController c(spec, losses.size(), 500);
    while (!c.stopped()) {
      const std::size_t begin = c.observed();
      c.observe(begin, std::span<const double>(losses)
                           .subspan(begin, c.frontier() - begin));
      c.advance();
    }
    return c.frontier();
  };
  const std::size_t first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_LT(first, losses.size());  // 2% on cv 0.8 stops well early
}

TEST(AdaptiveController, HonorsMaxTrialsBudget) {
  StoppingSpec spec;
  spec.relative_tolerance = 1.0e-9;
  spec.min_trials = 100;
  spec.max_trials = 300;
  AdaptiveController c(spec, 100000, 100);
  const auto losses = lognormal_sample(300, 7);
  while (!c.stopped()) {
    const std::size_t begin = c.observed();
    c.observe(begin, std::span<const double>(losses)
                         .subspan(begin, c.frontier() - begin));
    c.advance();
  }
  EXPECT_EQ(c.frontier(), 300u);
  EXPECT_FALSE(c.converged());
}

TEST(AdaptiveController, RejectsEmptyWorkload) {
  StoppingSpec spec;
  EXPECT_THROW(AdaptiveController(spec, 0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace ara::metrics
