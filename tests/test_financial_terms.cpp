#include "core/financial_terms.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

namespace ara {
namespace {

TEST(FinancialTerms, IdentityPassesLossThrough) {
  const FinancialTerms t = FinancialTerms::identity();
  EXPECT_DOUBLE_EQ(apply_financial_terms(0.0, t), 0.0);
  EXPECT_DOUBLE_EQ(apply_financial_terms(123.5, t), 123.5);
  EXPECT_DOUBLE_EQ(apply_financial_terms(1e12, t), 1e12);
}

TEST(FinancialTerms, RetentionDeductsFromLoss) {
  FinancialTerms t;
  t.retention = 100.0;
  EXPECT_DOUBLE_EQ(apply_financial_terms(250.0, t), 150.0);
}

TEST(FinancialTerms, LossBelowRetentionGivesZero) {
  FinancialTerms t;
  t.retention = 100.0;
  EXPECT_DOUBLE_EQ(apply_financial_terms(99.0, t), 0.0);
  EXPECT_DOUBLE_EQ(apply_financial_terms(100.0, t), 0.0);
}

TEST(FinancialTerms, LimitCapsLoss) {
  FinancialTerms t;
  t.limit = 500.0;
  EXPECT_DOUBLE_EQ(apply_financial_terms(750.0, t), 500.0);
  EXPECT_DOUBLE_EQ(apply_financial_terms(400.0, t), 400.0);
}

TEST(FinancialTerms, RetentionAppliesBeforeLimit) {
  FinancialTerms t;
  t.retention = 100.0;
  t.limit = 500.0;
  // 700 - 100 = 600, capped at 500.
  EXPECT_DOUBLE_EQ(apply_financial_terms(700.0, t), 500.0);
  // 550 - 100 = 450, under the limit.
  EXPECT_DOUBLE_EQ(apply_financial_terms(550.0, t), 450.0);
}

TEST(FinancialTerms, FxRateConvertsBeforeRetention) {
  FinancialTerms t;
  t.fx_rate = 2.0;
  t.retention = 100.0;
  // 2 * 80 = 160, minus 100 = 60.
  EXPECT_DOUBLE_EQ(apply_financial_terms(80.0, t), 60.0);
}

TEST(FinancialTerms, ShareAppliesLast) {
  FinancialTerms t;
  t.retention = 100.0;
  t.limit = 500.0;
  t.share = 0.25;
  // (700 - 100 -> capped 500) * 0.25 = 125.
  EXPECT_DOUBLE_EQ(apply_financial_terms(700.0, t), 125.0);
}

TEST(FinancialTerms, ZeroShareZeroesEverything) {
  FinancialTerms t;
  t.share = 0.0;
  EXPECT_DOUBLE_EQ(apply_financial_terms(1e9, t), 0.0);
}

TEST(FinancialTerms, FloatInstantiationMatchesDoubleWithinTolerance) {
  FinancialTerms t;
  t.fx_rate = 1.2;
  t.retention = 55.5;
  t.limit = 700.0;
  t.share = 0.8;
  for (double loss : {0.0, 10.0, 100.0, 555.5, 1234.0}) {
    const double d = apply_financial_terms(loss, t);
    const float f = apply_financial_terms(static_cast<float>(loss), t);
    EXPECT_NEAR(static_cast<double>(f), d, 1e-3 * (1.0 + d));
  }
}

TEST(FinancialTerms, ValidityChecks) {
  EXPECT_TRUE(FinancialTerms::identity().valid());
  FinancialTerms bad_share;
  bad_share.share = 1.5;
  EXPECT_FALSE(bad_share.valid());
  FinancialTerms neg_ret;
  neg_ret.retention = -1.0;
  EXPECT_FALSE(neg_ret.valid());
  FinancialTerms neg_fx;
  neg_fx.fx_rate = -0.1;
  EXPECT_FALSE(neg_fx.valid());
  // An event the ELT does not record would cost 0 * inf = NaN.
  FinancialTerms inf_fx;
  inf_fx.fx_rate = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(inf_fx.valid());
}

// Property sweep: output is bounded by share * limit, non-negative,
// and monotone non-decreasing in the input loss.
class FinancialTermsProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FinancialTermsProperty, BoundedAndMonotone) {
  const auto [retention, limit, share] = GetParam();
  FinancialTerms t;
  t.retention = retention;
  t.limit = limit;
  t.share = share;
  double prev = -1.0;
  for (double loss = 0.0; loss <= 2000.0; loss += 61.7) {
    const double out = apply_financial_terms(loss, t);
    EXPECT_GE(out, 0.0);
    EXPECT_LE(out, share * limit + 1e-12);
    EXPECT_GE(out, prev);  // monotone in loss
    prev = out;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TermGrid, FinancialTermsProperty,
    ::testing::Combine(::testing::Values(0.0, 50.0, 400.0),
                       ::testing::Values(100.0, 750.0, 1e6),
                       ::testing::Values(0.0, 0.5, 1.0)));

// Monotonicity in the terms themselves: larger retention never
// increases the recovered loss; larger limit never decreases it.
TEST(FinancialTermsProperty, MonotoneInRetentionAndLimit) {
  for (double loss : {0.0, 120.0, 480.0, 1500.0}) {
    double prev = std::numeric_limits<double>::infinity();
    for (double ret : {0.0, 100.0, 200.0, 400.0}) {
      FinancialTerms t;
      t.retention = ret;
      const double out = apply_financial_terms(loss, t);
      EXPECT_LE(out, prev);
      prev = out;
    }
    double prev_lim = -1.0;
    for (double lim : {10.0, 100.0, 1000.0}) {
      FinancialTerms t;
      t.limit = lim;
      const double out = apply_financial_terms(loss, t);
      EXPECT_GE(out, prev_lim);
      prev_lim = out;
    }
  }
}

}  // namespace
}  // namespace ara
