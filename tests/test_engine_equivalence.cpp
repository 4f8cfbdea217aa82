// The central correctness property of the paper's engineering study:
// every implementation — sequential literal, fused, multi-core, basic
// GPU, optimised GPU (double and float), multi-GPU — computes the same
// Year Loss Table.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/engine_factory.hpp"
#include "core/reference_engine.hpp"
#include "core/trial_math.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

struct EquivCase {
  EngineKind kind;
  bool use_float;
};

// Policy-built engine with the test's tunables: single-GPU kinds on a
// Tesla C2075, kMultiGpu on `gpu_count` of its default M2090s.
std::unique_ptr<Engine> engine_with(EngineKind kind, const EngineConfig& cfg,
                                    std::size_t gpu_count) {
  ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
  policy.config = cfg;
  policy.gpu_device = simgpu::tesla_c2075();
  policy.gpu_count = gpu_count;
  return make_engine(policy);
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<EquivCase, int>> {};

std::string case_name(
    const ::testing::TestParamInfo<EngineEquivalence::ParamType>& info) {
  const auto& [c, scenario] = info.param;
  return engine_kind_name(c.kind) + (c.use_float ? "_f32" : "_f64") +
         "_s" + std::to_string(scenario);
}

synth::Scenario scenario_for(int id) {
  switch (id) {
    case 0:
      return synth::tiny(64, 11);
    case 1:
      return synth::multi_layer_book(6, 100, 22);
    default:
      return synth::paper_scaled(20000, 33);  // 50 trials, paper shape
  }
}

TEST_P(EngineEquivalence, MatchesReferenceYlt) {
  const auto& [c, scenario_id] = GetParam();
  const synth::Scenario s = scenario_for(scenario_id);

  ReferenceEngine reference;
  const SimulationResult expect = reference.run(s.portfolio, s.yet);

  EngineConfig cfg = paper_config(c.kind);
  cfg.use_float = c.use_float;
  cfg.cores = 4;           // keep host thread counts sane in CI
  cfg.threads_per_core = 2;
  const auto engine = engine_with(c.kind, cfg, 3);
  const SimulationResult got = engine->run(s.portfolio, s.yet);

  ASSERT_EQ(got.ylt.layer_count(), expect.ylt.layer_count());
  ASSERT_EQ(got.ylt.trial_count(), expect.ylt.trial_count());

  // Float engines accumulate in single precision; allow relative error.
  const double tol = c.use_float ? 2e-4 : 0.0;
  for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      const double e = expect.ylt.annual_loss(l, t);
      const double g = got.ylt.annual_loss(l, t);
      ASSERT_NEAR(g, e, tol * (1.0 + std::abs(e)))
          << "annual loss, layer " << l << " trial " << t;
      const double eo = expect.ylt.max_occurrence_loss(l, t);
      const double go = got.ylt.max_occurrence_loss(l, t);
      ASSERT_NEAR(go, eo, tol * (1.0 + std::abs(eo)))
          << "max occurrence, layer " << l << " trial " << t;
    }
  }
  // Identical algorithmic work regardless of implementation.
  EXPECT_EQ(got.ops.elt_lookups, expect.ops.elt_lookups);
  EXPECT_EQ(got.ops.financial_ops, expect.ops.financial_ops);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllScenarios, EngineEquivalence,
    ::testing::Combine(
        ::testing::Values(EquivCase{EngineKind::kSequentialFused, false},
                          EquivCase{EngineKind::kMultiCore, false},
                          EquivCase{EngineKind::kGpuBasic, false},
                          EquivCase{EngineKind::kGpuOptimized, false},
                          EquivCase{EngineKind::kGpuOptimized, true},
                          EquivCase{EngineKind::kMultiGpu, false},
                          EquivCase{EngineKind::kMultiGpu, true}),
        ::testing::Values(0, 1, 2)),
    case_name);

// Double-precision engines should agree with the reference *bitwise*:
// same operand ordering everywhere.
class BitwiseEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BitwiseEquivalence, DoubleEnginesBitwiseEqual) {
  const synth::Scenario s = synth::tiny(128, 5);
  ReferenceEngine reference;
  const SimulationResult expect = reference.run(s.portfolio, s.yet);

  EngineConfig cfg = paper_config(GetParam());
  cfg.use_float = false;
  cfg.cores = 4;
  const auto engine = engine_with(GetParam(), cfg, 2);
  const SimulationResult got = engine->run(s.portfolio, s.yet);

  for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      ASSERT_EQ(got.ylt.annual_loss(l, t), expect.ylt.annual_loss(l, t))
          << "layer " << l << " trial " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DoubleEngines, BitwiseEquivalence,
                         ::testing::Values(EngineKind::kSequentialFused,
                                           EngineKind::kMultiCore,
                                           EngineKind::kGpuBasic,
                                           EngineKind::kGpuOptimized,
                                           EngineKind::kMultiGpu),
                         [](const auto& info) {
                           return engine_kind_name(info.param);
                         });

// The trial-major sweep must stay bitwise identical to the per-layer
// reference on a many-layer book with shared ELTs — the shape where
// the fused formulation actually reorders the memory walk.
TEST(TrialMajorFusion, BitwiseEqualOnManyLayerBook) {
  const synth::Scenario s = synth::multi_layer_book(12, 96, 19);
  ReferenceEngine reference;
  const SimulationResult expect = reference.run(s.portfolio, s.yet);

  for (const EngineKind kind :
       {EngineKind::kSequentialFused, EngineKind::kMultiCore,
        EngineKind::kGpuBasic, EngineKind::kGpuOptimized,
        EngineKind::kMultiGpu}) {
    EngineConfig cfg = paper_config(kind);
    cfg.use_float = false;
    cfg.cores = 4;
    const auto engine = engine_with(kind, cfg, 2);
    const SimulationResult got = engine->run(s.portfolio, s.yet);
    for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
      for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
        ASSERT_EQ(got.ylt.annual_loss(l, t), expect.ylt.annual_loss(l, t))
            << engine_kind_name(kind) << " layer " << l << " trial " << t;
        ASSERT_EQ(got.ylt.max_occurrence_loss(l, t),
                  expect.ylt.max_occurrence_loss(l, t))
            << engine_kind_name(kind) << " layer " << l << " trial " << t;
      }
    }
  }
}

// Op accounting of the fusion: fused engines fetch each occurrence
// once for all layers; the literal reference re-fetches per layer.
// All per-(layer, event) work is unchanged.
TEST(TrialMajorFusion, FusedEnginesChargeSingleYetPass) {
  const synth::Scenario s = synth::multi_layer_book(5, 64, 23);
  const auto occurrences =
      static_cast<std::uint64_t>(s.yet.occurrence_count());
  ASSERT_GT(s.portfolio.layer_count(), 1u);

  ReferenceEngine reference;
  const SimulationResult ref = reference.run(s.portfolio, s.yet);
  EXPECT_EQ(ref.ops.event_fetches,
            occurrences * s.portfolio.layer_count());

  for (const EngineKind kind :
       {EngineKind::kSequentialFused, EngineKind::kMultiCore,
        EngineKind::kGpuBasic, EngineKind::kGpuOptimized,
        EngineKind::kMultiGpu}) {
    EngineConfig cfg = paper_config(kind);
    cfg.cores = 2;
    const auto engine = engine_with(kind, cfg, 2);
    const SimulationResult got = engine->run(s.portfolio, s.yet);
    EXPECT_EQ(got.ops.event_fetches, occurrences) << engine_kind_name(kind);
    EXPECT_EQ(got.ops.elt_lookups, ref.ops.elt_lookups)
        << engine_kind_name(kind);
    EXPECT_EQ(got.ops.financial_ops, ref.ops.financial_ops)
        << engine_kind_name(kind);
    EXPECT_EQ(got.ops.occurrence_ops, ref.ops.occurrence_ops)
        << engine_kind_name(kind);
  }
}

// The oracle must not share the engines' table layout: a store with
// one wrong cell, passed through the context, changes what the fused
// engine computes but not what the reference computes — otherwise a
// wrong column map in build_tables would be repeated by the oracle
// every equivalence wall compares against.
TEST(OracleIndependence, ReferenceIgnoresTheSharedStore) {
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 10.0}, {3, 30.0}},
                    FinancialTerms::identity(), 5);
  elts.emplace_back(std::vector<EventLoss>{{3, 300.0}, {5, 500.0}},
                    FinancialTerms::identity(), 5);
  const Portfolio portfolio(std::move(elts),
                            {Layer{"L", {1, 0}, LayerTerms::identity()}});
  const Yet yet({{{3, 1}, {5, 2}}, {{1, 1}}}, 5);

  TableStore<double> store = build_tables<double>(portfolio);
  const std::size_t column = store.per_layer[0][0];  // ELT 1
  store.rows[3 * store.width + column] += 1000.0;    // event 3, hit in trial 0
  EngineContext context;
  context.tables_f64 = &store;

  const ReferenceEngine reference;
  const SimulationResult want = reference.run(portfolio, yet);
  EXPECT_EQ(want.ylt.annual_loss(0, 0), 830.0);
  EXPECT_EQ(reference.run(portfolio, yet, context).ylt.annual_raw(),
            want.ylt.annual_raw());

  const auto fused = make_engine(
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  EXPECT_EQ(fused->run(portfolio, yet).ylt.annual_raw(), want.ylt.annual_raw());
  const SimulationResult altered = fused->run(portfolio, yet, context);
  EXPECT_EQ(altered.ylt.annual_loss(0, 0), 1830.0);
  EXPECT_EQ(altered.ylt.annual_loss(0, 1), want.ylt.annual_loss(0, 1));
}

TEST(EngineFactory, AllKindsConstruct) {
  for (const EngineKind kind : all_engine_kinds()) {
    const auto engine = make_engine(ExecutionPolicy::with_engine(kind));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), engine_kind_name(kind));
  }
}

}  // namespace
}  // namespace ara
