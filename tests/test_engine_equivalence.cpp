// The central correctness property of the paper's engineering study:
// every implementation — sequential literal, fused, multi-core, basic
// GPU, optimised GPU (double and float), multi-GPU — computes the same
// Year Loss Table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine_factory.hpp"
#include "core/gpu_engines.hpp"
#include "core/reference_engine.hpp"
#include "core/simd/bound_portfolio.hpp"
#include "core/simd/kernels.hpp"
#include "core/trial_math.hpp"
#include "extensions/reinstatements.hpp"
#include "extensions/secondary_uncertainty.hpp"
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

// The oracle must not share the engines' table: a store with one
// wrong cell, passed through the context, changes what the fused
// engine computes but not what the reference computes — otherwise a
// wrong sum in build_tables would be repeated by the oracle every
// equivalence wall compares against.
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
  store.rows[3 * store.width + 0] += 1000.0;  // layer 0, event 3 (trial 0)
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

// --- covered-only sweeps ------------------------------------------

// Every store-reading sweep skips the occurrences of events no ELT
// records (TableStore::covered, covered_occurrences). The premise: such
// an event's row is +0.0 in every slot, and a +0.0 step leaves every
// running value bitwise unchanged, so a trial and its covered
// subsequence give the same bits. The book below covers the bitmap's
// word edges (events 1, 63, 64, 65 and the catalogue's last id, bit 63
// of the last word), records event 64 with loss 0 only (covered, yet an
// all-zero row), and puts financial, occurrence and aggregate terms on
// its layers; the YET has a trial of uncovered events only.
constexpr EventId kCoverageCatalogue = 191;  // 192 rows: three whole words

Portfolio coverage_portfolio(std::size_t layers) {
  FinancialTerms converted;
  converted.fx_rate = 1.25;
  converted.retention = 5.0;
  converted.limit = 70.0;
  converted.share = 0.75;
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 100.0},
                                           {63, 40.0},
                                           {64, 0.0},
                                           {65, 75.0},
                                           {120, 30.5},
                                           {kCoverageCatalogue, 55.0}},
                    FinancialTerms::identity(), kCoverageCatalogue);
  elts.emplace_back(std::vector<EventLoss>{{2, 20.0},
                                           {63, 25.0},
                                           {65, 10.0},
                                           {100, 60.0},
                                           {kCoverageCatalogue, 5.0}},
                    converted, kCoverageCatalogue);
  LayerTerms xl;
  xl.occ_retention = 10.0;
  xl.occ_limit = 60.0;
  xl.agg_retention = 15.0;
  xl.agg_limit = 150.0;
  LayerTerms aggregate;
  aggregate.agg_retention = 50.0;
  aggregate.agg_limit = 120.0;
  std::vector<Layer> book = {Layer{"both", {0, 1}, LayerTerms::identity()},
                             Layer{"converted", {1}, xl},
                             Layer{"ground", {0}, aggregate}};
  book.resize(layers);
  return Portfolio(std::move(elts), std::move(book));
}

Yet coverage_yet() {
  std::vector<std::vector<EventOccurrence>> trials = {
      {{1, 1}, {3, 2}, {63, 3}, {64, 4}, {65, 5}, {66, 6}, {191, 7}},
      {{3, 1}, {62, 2}, {66, 3}, {190, 4}},  // uncovered only
      {},
      {{64, 1}, {127, 2}, {64, 3}},  // covered, every loss 0
      {{191, 1}, {190, 2}, {2, 3}, {128, 4}, {100, 5}, {65, 6}},
  };
  // Longer than the prefetch window before and after the cut.
  const EventId cycle[] = {1,   3,   63,  62,  64,  65, 66,
                           120, 127, 191, 190, 2,   100, 128};
  std::vector<EventOccurrence>& mixed = trials.emplace_back();
  for (Timestamp i = 0; i < 40; ++i) mixed.push_back({cycle[i % 14], i});
  return Yet(trials, kCoverageCatalogue);
}

// `yet` without the occurrences of events no ELT of `portfolio`
// records, decided from the records, not from the store's bitmap.
Yet covered_only(const Portfolio& portfolio, const Yet& yet) {
  std::set<EventId> recorded;
  for (const Elt& elt : portfolio.elts()) {
    for (const EventLoss& r : elt.records()) recorded.insert(r.event);
  }
  std::vector<std::vector<EventOccurrence>> trials;
  for (TrialId t = 0; t < yet.trial_count(); ++t) {
    std::vector<EventOccurrence>& kept = trials.emplace_back();
    for (const EventOccurrence& occ : yet.trial(t)) {
      if (recorded.count(occ.event) != 0) kept.push_back(occ);
    }
  }
  return Yet(trials, yet.catalogue_size());
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

void expect_same_bits(const Ylt& got, const Ylt& want,
                      const std::string& what) {
  ASSERT_EQ(got.layer_count(), want.layer_count()) << what;
  ASSERT_EQ(got.trial_count(), want.trial_count()) << what;
  for (std::size_t a = 0; a < want.layer_count(); ++a) {
    for (TrialId t = 0; t < want.trial_count(); ++t) {
      EXPECT_EQ(bits(got.annual_loss(a, t)), bits(want.annual_loss(a, t)))
          << what << " annual, layer " << a << " trial " << t;
      EXPECT_EQ(bits(got.max_occurrence_loss(a, t)),
                bits(want.max_occurrence_loss(a, t)))
          << what << " max occ, layer " << a << " trial " << t;
    }
  }
}

// The kernel each policy selects, on the full trial and on
// covered_occurrences' span.
template <typename Real>
void expect_kernels_ignore_uncovered(std::size_t layers) {
  const Portfolio portfolio = coverage_portfolio(layers);
  const Yet yet = coverage_yet();
  const Yet kept = covered_only(portfolio, yet);
  const TableStore<Real> store = build_tables<Real>(portfolio);
  ASSERT_EQ(store.covered.size(), (store.events + 63) / 64);
  const simd::BoundPortfolio<Real> bp = simd::bind_portfolio(portfolio, store);
  simd::PortfolioTrialState<Real> full(bp);
  simd::PortfolioTrialState<Real> cut(bp);
  std::vector<EventOccurrence> scratch;
  for (const simd::SimdPolicy policy :
       {simd::SimdPolicy::kScalar, simd::SimdPolicy::kAuto}) {
    const simd::SweepKernel<Real> kernel = simd::select_kernel<Real>(policy);
    const std::string what = std::to_string(layers) + "L/" +
                             (sizeof(Real) == 4 ? "f32/" : "f64/") +
                             simd::isa_name(kernel.isa);
    for (TrialId t = 0; t < yet.trial_count(); ++t) {
      const auto covered = covered_occurrences(store, yet.trial(t), scratch);
      ASSERT_TRUE(std::ranges::equal(covered, kept.trial(t)))
          << what << " trial " << t;
      kernel.sweep(bp, yet.trial(t), full);
      kernel.sweep(bp, covered, cut);
      for (std::size_t a = 0; a < bp.layers; ++a) {
        EXPECT_EQ(bits(cut.annual[a]), bits(full.annual[a]))
            << what << " annual, layer " << a << " trial " << t;
        EXPECT_EQ(bits(cut.max_occurrence[a]), bits(full.max_occurrence[a]))
            << what << " max occ, layer " << a << " trial " << t;
      }
    }
  }
}

TEST(CoveredOnly, KernelsGiveTheSameBitsOnTheCoveredSpan) {
  for (const std::size_t layers : {1, 3}) {
    expect_kernels_ignore_uncovered<double>(layers);
    expect_kernels_ignore_uncovered<float>(layers);
  }
}

TEST(CoveredOnly, EveryEngineMatchesItsRunWithoutUncoveredOccurrences) {
  const Portfolio portfolio = coverage_portfolio(3);
  const Yet yet = coverage_yet();
  const Yet kept = covered_only(portfolio, yet);
  ASSERT_LT(kept.occurrence_count(), yet.occurrence_count());

  std::vector<std::pair<std::string, std::unique_ptr<Engine>>> engines;
  for (const EngineKind kind : all_engine_kinds()) {
    for (const bool use_float : {false, true}) {
      for (const simd::SimdPolicy simd :
           {simd::SimdPolicy::kScalar, simd::SimdPolicy::kAuto}) {
        EngineConfig cfg = paper_config(kind);
        cfg.use_float = use_float;
        cfg.cores = 2;
        cfg.threads_per_core = 2;
        if (use_float && !binds_float_tables(kind, cfg)) continue;
        ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
        policy.config = cfg;
        policy.gpu_count = 2;
        policy.simd = simd;
        engines.emplace_back(engine_kind_name(kind) +
                                 (use_float ? "/f32/" : "/f64/") +
                                 (simd == simd::SimdPolicy::kAuto ? "auto"
                                                                  : "scalar"),
                             make_engine(policy));
      }
    }
  }
  for (const bool use_float : {false, true}) {
    EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
    cfg.use_float = use_float;
    const std::string precision = use_float ? "/f32" : "/f64";
    engines.emplace_back(
        "gpu_streamed" + precision,
        std::make_unique<StreamedGpuEngine>(simgpu::tesla_c2075(), cfg));
    engines.emplace_back(
        "hetero_multi_gpu" + precision,
        std::make_unique<HeterogeneousMultiGpuEngine>(
            std::vector<simgpu::DeviceSpec>{simgpu::tesla_c2075(),
                                            simgpu::tesla_m2090()},
            cfg));
  }
  engines.emplace_back("gpu_combined_table",
                       std::make_unique<GpuCombinedTableEngine>(
                           simgpu::tesla_c2075(),
                           paper_config(EngineKind::kGpuBasic)));
  engines.emplace_back("secondary_uncertainty",
                       std::make_unique<ext::SecondaryUncertaintyEngine>());

  for (const auto& [what, engine] : engines) {
    const SimulationResult full = engine->run(portfolio, yet);
    for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
      for (const TrialId t : {1u, 3u}) {  // no non-zero loss in the trial
        EXPECT_EQ(bits(full.ylt.annual_loss(a, t)), bits(0.0))
            << what << " layer " << a << " trial " << t;
        EXPECT_EQ(bits(full.ylt.max_occurrence_loss(a, t)), bits(0.0))
            << what << " layer " << a << " trial " << t;
      }
    }
    expect_same_bits(engine->run(portfolio, kept).ylt, full.ylt, what);
  }

  ext::ReinstatementTerms terms;
  terms.occ_retention = 8.0;
  terms.occ_limit = 45.0;
  terms.reinstatements = 1;
  terms.upfront_premium = 12.0;
  const ext::ReinstatementEngine reinstatements(
      portfolio, std::vector<ext::ReinstatementTerms>(3, terms));
  const ext::ReinstatementResult want = reinstatements.run(yet, nullptr);
  const ext::ReinstatementResult got = reinstatements.run(kept, nullptr);
  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    for (TrialId t = 0; t < yet.trial_count(); ++t) {
      EXPECT_EQ(bits(got.at(a, t).recovered), bits(want.at(a, t).recovered))
          << "reinstatements layer " << a << " trial " << t;
      EXPECT_EQ(bits(got.at(a, t).reinstated), bits(want.at(a, t).reinstated))
          << "reinstatements layer " << a << " trial " << t;
      EXPECT_EQ(bits(got.at(a, t).reinstatement_premium),
                bits(want.at(a, t).reinstatement_premium))
          << "reinstatements layer " << a << " trial " << t;
    }
  }
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
