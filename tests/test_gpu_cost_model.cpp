// Calibration tests: the cost model must land on the paper's published
// timings for the paper's workload (1.5e10 lookups, 1e9 event fetches)
// at the paper's launch configurations — the engines' own kernel plans
// at paper_config. Tolerances are ~10% — the model is analytic, not a
// curve fit per figure.
#include "simgpu/gpu_cost_model.hpp"

#include <gtest/gtest.h>

#include "core/engine_factory.hpp"
#include "core/gpu_engines.hpp"

namespace ara::simgpu {
namespace {

// Operation counts of the paper's headline workload (one layer of 15
// ELTs, 1e6 trials x 1000 events).
ara::OpCounts paper_ops() {
  ara::OpCounts ops;
  ops.event_fetches = 1'000'000'000ULL;
  ops.elt_lookups = 15'000'000'000ULL;
  ops.financial_ops = 15'000'000'000ULL;
  ops.occurrence_ops = 1'000'000'000ULL;
  ops.aggregate_ops = 1'000'000'000ULL;
  return ops;
}

// The engines' own kernel plans at the paper's configuration
// (core/gpu_engines.hpp) over `trials` trials doing `ops` of work.
ara::KernelPlan basic_plan(ara::OpCounts ops, unsigned block = 256,
                           std::size_t trials = 1'000'000) {
  ara::EngineConfig cfg = ara::paper_config(ara::EngineKind::kGpuBasic);
  cfg.block_threads = block;
  return ara::basic_kernel_plan(cfg, trials, ops);
}

ara::KernelPlan optimized_plan(ara::OpCounts ops, unsigned block = 32,
                               std::size_t trials = 1'000'000) {
  ara::EngineConfig cfg = ara::paper_config(ara::EngineKind::kGpuOptimized);
  cfg.block_threads = block;
  return ara::optimized_kernel_plan(cfg, trials, ops);
}

KernelCost price(const GpuCostModel& model, const ara::KernelPlan& plan) {
  return model.estimate(plan.launch, plan.traits, plan.ops);
}

TEST(GpuCostModel, BasicKernelMatchesPaper38s) {
  const GpuCostModel model(tesla_c2075());
  const ara::KernelPlan plan = basic_plan(paper_ops());
  // Algorithm 1's scratch: 5 global-memory touches per event.
  EXPECT_EQ(plan.ops.global_updates, plan.ops.occurrence_ops * 5);
  const KernelCost cost = price(model, plan);
  ASSERT_TRUE(cost.feasible);
  // Paper: 38.47-38.49 s on the C2075.
  EXPECT_NEAR(cost.total_seconds, 38.5, 3.5);
  // Paper Fig. 6: basic-GPU event fetch ~ 4 s.
  EXPECT_NEAR(cost.phases[perf::Phase::kEventFetch], 4.0, 1.0);
}

TEST(GpuCostModel, OptimizedKernelMatchesPaper20s) {
  const GpuCostModel model(tesla_c2075());
  const KernelCost cost = price(model, optimized_plan(paper_ops()));
  ASSERT_TRUE(cost.feasible);
  // Paper: 20.63 s total; 20.1 s lookup; 0.11 s financial+layer;
  // < 0.5 s fetch.
  EXPECT_NEAR(cost.total_seconds, 20.6, 2.0);
  EXPECT_NEAR(cost.phases[perf::Phase::kLossLookup], 20.1, 2.0);
  EXPECT_LT(cost.phases[perf::Phase::kEventFetch], 0.5);
  EXPECT_NEAR(cost.phases[perf::Phase::kFinancialTerms] +
                  cost.phases[perf::Phase::kOccurrenceTerms] +
                  cost.phases[perf::Phase::kAggregateTerms],
              0.11, 0.06);
}

TEST(GpuCostModel, QuarterWorkloadOnM2090MatchesPaper4_35s) {
  // Each of the paper's four M2090s processes 1/4 of the trials.
  const GpuCostModel model(tesla_m2090());
  ara::OpCounts ops = paper_ops();
  ops.event_fetches /= 4;
  ops.elt_lookups /= 4;
  ops.financial_ops /= 4;
  ops.occurrence_ops /= 4;
  ops.aggregate_ops /= 4;
  const KernelCost cost =
      price(model, optimized_plan(ops, 32, 1'000'000 / 4));
  ASSERT_TRUE(cost.feasible);
  EXPECT_NEAR(cost.total_seconds, 4.35, 0.45);
  // Paper: lookup 4.25 s, financial+layer 0.02 s, fetch < 0.1 s.
  EXPECT_NEAR(cost.phases[perf::Phase::kLossLookup], 4.25, 0.45);
  EXPECT_LT(cost.phases[perf::Phase::kEventFetch], 0.12);
}

TEST(GpuCostModel, LookupShareOnMultiGpuIs97Percent) {
  const GpuCostModel model(tesla_m2090());
  const KernelCost cost = price(model, optimized_plan(paper_ops()));
  // Paper: "97.54% of the total time is for look-up".
  EXPECT_GT(cost.phases[perf::Phase::kLossLookup] / cost.total_seconds, 0.93);
}

TEST(GpuCostModel, LatencyHidingCurveShape) {
  const GpuCostModel model(tesla_c2075());
  EXPECT_DOUBLE_EQ(model.latency_hiding_efficiency(0.0), 0.0);
  EXPECT_NEAR(model.latency_hiding_efficiency(48.0), 0.889, 0.01);
  EXPECT_NEAR(model.latency_hiding_efficiency(32.0), 0.842, 0.01);
  EXPECT_LT(model.latency_hiding_efficiency(16.0),
            model.latency_hiding_efficiency(48.0));
  EXPECT_GT(model.latency_hiding_efficiency(1000.0), 0.99);
}

TEST(GpuCostModel, InfeasibleLaunchReported) {
  const GpuCostModel model(tesla_c2075());
  const KernelCost cost = price(model, optimized_plan(paper_ops(), 128));
  EXPECT_FALSE(cost.feasible);
  EXPECT_STREQ(cost.infeasible_reason, "shared_memory_per_block");
}

TEST(GpuCostModel, TransferUsesPcieBandwidth) {
  const GpuCostModel model(tesla_c2075());
  const double s = model.transfer_seconds(6ULL * 1000 * 1000 * 1000);
  EXPECT_NEAR(s, 1.0, 1e-9);  // 6 GB at 6 GB/s
}

TEST(GpuCostModel, CostsScaleLinearlyInWork) {
  const GpuCostModel model(tesla_c2075());
  ara::OpCounts ops = paper_ops();
  const KernelCost full = price(model, basic_plan(ops));
  ara::OpCounts half = ops;
  half.event_fetches /= 2;
  half.elt_lookups /= 2;
  half.financial_ops /= 2;
  half.occurrence_ops /= 2;
  half.aggregate_ops /= 2;
  const KernelCost half_cost = price(model, basic_plan(half));
  EXPECT_NEAR(half_cost.phases[perf::Phase::kLossLookup] * 2.0,
              full.phases[perf::Phase::kLossLookup], 1e-9);
}

TEST(GpuCostModel, M2090FasterThanC2075) {
  const GpuCostModel c(tesla_c2075());
  const GpuCostModel m(tesla_m2090());
  const KernelCost tc = price(c, optimized_plan(paper_ops()));
  const KernelCost tm = price(m, optimized_plan(paper_ops()));
  EXPECT_LT(tm.total_seconds, tc.total_seconds);
}

}  // namespace
}  // namespace ara::simgpu
