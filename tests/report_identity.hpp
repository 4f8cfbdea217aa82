// Bitwise equality of two metric reports, for the walls that pin one
// execution path to another (streamed vs monolithic, fleet vs shard
// pool, any executor vs the shard pool). Every metric value compares
// with EXPECT_EQ — the mean family too, since its exact sums make it
// independent of the block plan — so runs with different plans compare
// through expect_report_identical alone. expect_same_block_accounting
// is the separate check that two runs fed the reducer the same blocks.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/metrics/metrics_spec.hpp"

namespace ara::testdata {

inline void expect_layer_identical(const metrics::LayerMetrics& got,
                                   const metrics::LayerMetrics& want,
                                   const std::string& what) {
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(got.trials, want.trials) << what;
  EXPECT_EQ(got.aal, want.aal) << what;
  EXPECT_EQ(got.std_dev, want.std_dev) << what;
  EXPECT_EQ(got.max_annual, want.max_annual) << what;
  ASSERT_EQ(got.quantiles.size(), want.quantiles.size()) << what;
  for (std::size_t i = 0; i < want.quantiles.size(); ++i) {
    EXPECT_EQ(got.quantiles[i].p, want.quantiles[i].p) << what;
    EXPECT_EQ(got.quantiles[i].var, want.quantiles[i].var) << what;
    EXPECT_EQ(got.quantiles[i].tvar, want.quantiles[i].tvar) << what;
  }
  ASSERT_EQ(got.pml.size(), want.pml.size()) << what;
  for (std::size_t i = 0; i < want.pml.size(); ++i) {
    EXPECT_EQ(got.pml[i].loss, want.pml[i].loss) << what;
  }
  ASSERT_EQ(got.oep.size(), want.oep.size()) << what;
  for (std::size_t i = 0; i < want.oep.size(); ++i) {
    EXPECT_EQ(got.oep[i].loss, want.oep[i].loss) << what;
  }
  EXPECT_EQ(got.aep_curve, want.aep_curve) << what;
  EXPECT_EQ(got.oep_curve, want.oep_curve) << what;
}

inline void expect_report_identical(const metrics::MetricsReport& got,
                                    const metrics::MetricsReport& want,
                                    const std::string& what) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    expect_layer_identical(got.layers[l], want.layers[l],
                           what + "/layer" + std::to_string(l));
  }
  ASSERT_EQ(got.portfolio.has_value(), want.portfolio.has_value()) << what;
  if (want.portfolio) {
    expect_layer_identical(got.portfolio->totals, want.portfolio->totals,
                           what + "/portfolio");
    EXPECT_EQ(got.portfolio->diversification_benefit_tvar,
              want.portfolio->diversification_benefit_tvar)
        << what;
    EXPECT_EQ(got.portfolio->marginal_tvar, want.portfolio->marginal_tvar)
        << what;
  }
}

inline void expect_same_block_accounting(const metrics::MetricsReport& got,
                                         const metrics::MetricsReport& want,
                                         const std::string& what) {
  EXPECT_EQ(got.blocks_consumed, want.blocks_consumed) << what;
  EXPECT_EQ(got.max_block_trials, want.max_block_trials) << what;
  EXPECT_EQ(got.reservoir_entries, want.reservoir_entries) << what;
}

}  // namespace ara::testdata
