#include "core/metrics/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "synth/distributions.hpp"

namespace ara::metrics {
namespace {

const std::vector<double> kSample = {4.0, 1.0, 3.0, 2.0, 5.0};

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean(kSample), 3.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7.5}), 7.5);
}

TEST(Stats, Stddev) {
  // Sample variance of 1..5 = 2.5, and the root is rounded once.
  EXPECT_EQ(stddev(kSample), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
}

// A lognormal sample with values far apart in magnitude, so a plain
// double sum depends on the order it runs in.
std::vector<double> spread_sample(std::size_t n, std::uint64_t seed) {
  synth::Xoshiro256StarStar rng(seed);
  synth::LognormalSampler lognormal =
      synth::LognormalSampler::from_mean_cv(1.0e6, 4.0);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = i % 97 == 0 ? 0x1p60 : lognormal.sample(rng);
  }
  return out;
}

ExactMoments moments_of(const std::vector<double>& xs) {
  ExactMoments m;
  m.add(xs);
  return m;
}

TEST(ExactMoments, OrderNeverChangesTheBits) {
  std::vector<double> xs = spread_sample(5000, 11);
  const ExactMoments forward = moments_of(xs);
  std::reverse(xs.begin(), xs.end());
  const ExactMoments reversed = moments_of(xs);
  std::mt19937 rng(5);
  std::shuffle(xs.begin(), xs.end(), rng);
  const ExactMoments shuffled = moments_of(xs);
  EXPECT_EQ(reversed.mean(), forward.mean());
  EXPECT_EQ(shuffled.mean(), forward.mean());
  EXPECT_EQ(reversed.stddev(), forward.stddev());
  EXPECT_EQ(shuffled.stddev(), forward.stddev());
  EXPECT_EQ(mean(xs), forward.mean());
  EXPECT_EQ(stddev(xs), forward.stddev());
}

TEST(ExactMoments, MergeEqualsOneAccumulator) {
  const std::vector<double> xs = spread_sample(3001, 12);
  const ExactMoments whole = moments_of(xs);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{1500}, xs.size()}) {
    ExactMoments head;
    ExactMoments tail;
    head.add(std::span<const double>(xs).first(cut));
    tail.add(std::span<const double>(xs).subspan(cut));
    ExactMoments tail_first = tail;
    head.merge(tail);
    tail_first.merge(moments_of(std::vector<double>(
        xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(cut))));
    for (const ExactMoments* m : {&head, &tail_first}) {
      EXPECT_EQ(m->mean(), whole.mean()) << "cut " << cut;
      EXPECT_EQ(m->stddev(), whole.stddev()) << "cut " << cut;
    }
  }
}

TEST(ExactMoments, SumsExactlyFromSubnormalsToTwoToThe600) {
  // Every value but the last cancels, so the mean is 15 smallest
  // subnormals over 15 values: only an exact sum keeps it.
  std::vector<double> xs;
  for (const double a : {0x1p600, 0x1p300, 1.0, 0x1p-300, 0x1p-1000,
                         0x1p-1022, 0x1p-1074}) {
    xs.push_back(a);
    xs.push_back(-a);
  }
  xs.push_back(15 * 0x1p-1074);
  EXPECT_EQ(mean(xs), 0x1p-1074);

  // x² of 2^600 is past the double range; the exact square is not.
  EXPECT_EQ(stddev(std::vector<double>{0x1p600, -0x1p600}),
            std::ldexp(std::sqrt(2.0), 600));
  // ...nor is a subnormal's: sqrt(2)·2^-1074 rounds to 2^-1074.
  EXPECT_EQ(stddev(std::vector<double>{0.0, 0x1p-1073}), 0x1p-1074);
  // 2^53 + 1000 ones: a left-to-right double sum drops every one.
  std::vector<double> absorbing(1001, 1.0);
  absorbing.front() = 0x1p53;
  EXPECT_EQ(mean(absorbing), (0x1p53 + 1000.0) / 1001.0);
}

TEST(ExactMoments, EmptySingleAndConstantSamples) {
  const ExactMoments empty;
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.stddev(), 0.0);

  const ExactMoments one = moments_of({-3.25});
  EXPECT_EQ(one.mean(), -3.25);
  EXPECT_EQ(one.stddev(), 0.0);

  // A constant sample's spread is exactly zero, whatever the rounding
  // of its mean.
  const std::vector<double> constant(1000, 0.1);
  EXPECT_EQ(stddev(constant), 0.0);
  EXPECT_EQ(mean(constant), 0.1);
}

TEST(ExactMoments, NonFiniteInputGivesNonFiniteResults) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_inf = {1.0, kInf, 2.0};
  EXPECT_EQ(mean(with_inf), kInf);
  EXPECT_TRUE(std::isnan(stddev(with_inf)));
  EXPECT_TRUE(std::isnan(mean(std::vector<double>{kInf, -kInf})));
  const std::vector<double> with_nan = {
      1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(mean(with_nan)));
  EXPECT_TRUE(std::isnan(stddev(with_nan)));
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(min_value(kSample), 1.0);
  EXPECT_DOUBLE_EQ(max_value(kSample), 5.0);
  EXPECT_THROW(min_value(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(max_value(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, QuantileEndpoints) {
  EXPECT_DOUBLE_EQ(quantile(kSample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(kSample, 1.0), 5.0);
}

TEST(Stats, QuantileInterpolates) {
  // Type-7 on 1..5: p=0.5 -> 3; p=0.25 -> 2; p=0.1 -> 1.4.
  EXPECT_DOUBLE_EQ(quantile(kSample, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(kSample, 0.25), 2.0);
  EXPECT_NEAR(quantile(kSample, 0.1), 1.4, 1e-12);
}

TEST(Stats, QuantileValidatesInput) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(kSample, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(kSample, 1.1), std::invalid_argument);
}

TEST(Stats, QuantileSortedSkipsSorting) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (double p : {0.0, 0.3, 0.5, 0.77, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(sorted, p), quantile(kSample, p));
  }
}

TEST(Stats, QuantileMonotoneInP) {
  const std::vector<double> data = {9.0, 1.0, 7.0, 7.0, 2.0, 5.0, 0.5};
  double prev = -1e300;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = quantile(data, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Stats, SortedCopyDoesNotMutate) {
  std::vector<double> data = {3.0, 1.0, 2.0};
  const auto sorted = sorted_copy(data);
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(data, (std::vector<double>{3.0, 1.0, 2.0}));
}

}  // namespace
}  // namespace ara::metrics
