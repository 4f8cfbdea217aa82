// The sweep wall (DESIGN.md §8): the scalar kernel over the
// layer-event table is the one kernel — under every SimdPolicy every
// engine must reproduce the independent four-pass oracle bit for bit,
// in both precisions, monolithic and sharded. kAuto selects the scalar
// kernel; kForceWidth, which demands a vector kernel, is refused. Small
// layer/ELT shapes and the row-prefetch window's edges are swept
// exhaustively against the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/reference_engine.hpp"
#include "core/session.hpp"
#include "core/simd/bound_portfolio.hpp"
#include "core/simd/kernels.hpp"
#include "core/trial_math.hpp"
#include "four_pass_reference.hpp"
#include "synth/portfolio_generator.hpp"
#include "synth/scenarios.hpp"
#include "synth/yet_generator.hpp"

namespace ara {
namespace {

// Expected YLT: ReferenceEngine's four-pass loop in f64, the test-local
// four-pass loop (four_pass_reference.hpp) in f32. Neither reads the
// shared store or calls the kernels' operand steps, so the kScalar
// walls compare the sweep against an independent oracle.
template <typename Real>
Ylt reference_ylt(const Portfolio& portfolio, const Yet& yet) {
  if constexpr (std::is_same_v<Real, double>) {
    return ReferenceEngine().run(portfolio, yet).ylt;
  } else {
    return four_pass_ylt<Real>(portfolio, yet);
  }
}

void expect_bitwise(const Ylt& got, const Ylt& expect, const std::string& what) {
  ASSERT_EQ(got.layer_count(), expect.layer_count()) << what;
  ASSERT_EQ(got.trial_count(), expect.trial_count()) << what;
  for (std::size_t a = 0; a < expect.layer_count(); ++a) {
    for (TrialId t = 0; t < expect.trial_count(); ++t) {
      ASSERT_EQ(got.annual_loss(a, t), expect.annual_loss(a, t))
          << what << " annual, layer " << a << " trial " << t;
      ASSERT_EQ(got.max_occurrence_loss(a, t),
                expect.max_occurrence_loss(a, t))
          << what << " max occ, layer " << a << " trial " << t;
    }
  }
}

// Agreement to accumulated rounding — a relative band with an
// absolute floor for losses clamped to zero.
void expect_close(const Ylt& got, const Ylt& expect, double rel,
                  const std::string& what) {
  ASSERT_EQ(got.layer_count(), expect.layer_count()) << what;
  ASSERT_EQ(got.trial_count(), expect.trial_count()) << what;
  for (std::size_t a = 0; a < expect.layer_count(); ++a) {
    for (TrialId t = 0; t < expect.trial_count(); ++t) {
      const double e = expect.annual_loss(a, t);
      ASSERT_NEAR(got.annual_loss(a, t), e, rel * (1.0 + std::abs(e)))
          << what << " annual, layer " << a << " trial " << t;
      const double eo = expect.max_occurrence_loss(a, t);
      ASSERT_NEAR(got.max_occurrence_loss(a, t), eo, rel * (1.0 + std::abs(eo)))
          << what << " max occ, layer " << a << " trial " << t;
    }
  }
}

Ylt run_with(AnalysisSession& session, const Portfolio& portfolio,
             const Yet& yet, EngineKind kind, simd::SimdPolicy simd,
             bool use_float, std::size_t shard_trials) {
  ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
  policy.simd = simd;
  policy.shard_trials = shard_trials;
  EngineConfig cfg = paper_config(kind);
  cfg.use_float = use_float;
  cfg.cores = 2;
  cfg.threads_per_core = 2;
  policy.config = cfg;

  AnalysisRequest request;
  request.portfolio = &portfolio;
  request.yet = &yet;
  request.policy = policy;
  return session.run(request).simulation.ylt;
}

// --- kScalar is the reference sequence, everywhere ----------------

// Every engine kind, both precisions where honoured, monolithic and
// sharded: under kScalar the YLT is bit-identical to the four-pass
// oracle. This is the regression wall that lets the SoA sweep claim
// "bitwise-reference mode".
TEST(ScalarBitwise, AllEnginesAllShardsMatchReference) {
  const synth::Scenario s = synth::tiny(26, 5);
  const Ylt expect_f64 = reference_ylt<double>(s.portfolio, s.yet);
  const Ylt expect_f32 = reference_ylt<float>(s.portfolio, s.yet);

  AnalysisSession session;
  const std::size_t shards[] = {0, 7, 13};  // 0 = monolithic
  for (const EngineKind kind : all_engine_kinds()) {
    for (const std::size_t shard : shards) {
      const std::string what = engine_kind_name(kind) + "/f64/shard=" +
                               std::to_string(shard);
      expect_bitwise(run_with(session, s.portfolio, s.yet, kind,
                              simd::SimdPolicy::kScalar, false, shard),
                     expect_f64, what);
    }
  }
  // Only the precision-reduced engines honour use_float.
  for (const EngineKind kind :
       {EngineKind::kGpuOptimized, EngineKind::kMultiGpu}) {
    for (const std::size_t shard : shards) {
      const std::string what = engine_kind_name(kind) + "/f32/shard=" +
                               std::to_string(shard);
      expect_bitwise(run_with(session, s.portfolio, s.yet, kind,
                              simd::SimdPolicy::kScalar, true, shard),
                     expect_f32, what);
    }
  }
}

// The default policy is scalar: a request that says nothing about SIMD
// must keep the bitwise contract.
TEST(ScalarBitwise, DefaultPolicyIsScalar) {
  EXPECT_EQ(ExecutionPolicy{}.simd, simd::SimdPolicy::kScalar);
  EXPECT_EQ(EngineConfig{}.simd, simd::SimdPolicy::kScalar);
}

// --- kAuto: deterministic, and the scalar kernel -------------------

// Two kAuto runs of the same workload are bitwise equal, and the
// sharded run is bitwise equal to the monolithic one.
TEST(SimdDeterminism, AutoRunToRunAndShardedBitwiseEqual) {
  const synth::Scenario s = synth::multi_layer_book(6, 60, 9);
  AnalysisSession session;
  for (const EngineKind kind :
       {EngineKind::kSequentialFused, EngineKind::kMultiCore,
        EngineKind::kGpuOptimized}) {
    const std::string what = engine_kind_name(kind);
    const Ylt first = run_with(session, s.portfolio, s.yet, kind,
                               simd::SimdPolicy::kAuto, false, 0);
    const Ylt second = run_with(session, s.portfolio, s.yet, kind,
                                simd::SimdPolicy::kAuto, false, 0);
    expect_bitwise(second, first, what + "/rerun");
    const Ylt sharded = run_with(session, s.portfolio, s.yet, kind,
                                 simd::SimdPolicy::kAuto, false, 17);
    expect_bitwise(sharded, first, what + "/sharded");
  }
}

TEST(SimdDeterminism, AutoWithinToleranceOfScalar) {
  const synth::Scenario s = synth::multi_layer_book(6, 60, 9);
  AnalysisSession session;
  for (const EngineKind kind :
       {EngineKind::kSequentialFused, EngineKind::kMultiCore,
        EngineKind::kGpuOptimized}) {
    const Ylt scalar = run_with(session, s.portfolio, s.yet, kind,
                                simd::SimdPolicy::kScalar, false, 0);
    const Ylt vec = run_with(session, s.portfolio, s.yet, kind,
                             simd::SimdPolicy::kAuto, false, 0);
    expect_close(vec, scalar, 1e-9, engine_kind_name(kind));
  }
}

// kAuto runs the scalar kernel, so its YLT is kScalar's, bit for bit,
// on every engine kind and in both precisions.
TEST(SimdDeterminism, AutoIsScalarBitwise) {
  const synth::Scenario s = synth::multi_layer_book(6, 60, 9);
  AnalysisSession session;
  for (const EngineKind kind : all_engine_kinds()) {
    for (const bool use_float : {false, true}) {
      const std::string what =
          engine_kind_name(kind) + (use_float ? "/f32" : "/f64");
      expect_bitwise(run_with(session, s.portfolio, s.yet, kind,
                              simd::SimdPolicy::kAuto, use_float, 0),
                     run_with(session, s.portfolio, s.yet, kind,
                              simd::SimdPolicy::kScalar, use_float, 0),
                     what);
    }
  }
}

// A zero-share ELT under an unlimited cover adds exactly nothing: its
// cell is +0.0, not the NaN that limit * share = inf * 0 would give a
// folded clamp. The second layer reads only the zero-share ELT, so the
// multi-layer loop sees it too.
TEST(SimdDeterminism, ZeroShareUnlimitedEltAddsNothing) {
  FinancialTerms no_share;  // limit stays +inf
  no_share.share = 0.0;
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 100.0}, {2, 50.0}},
                    FinancialTerms::identity(), 2);
  elts.emplace_back(std::vector<EventLoss>{{1, 70.0}}, no_share, 2);
  const Yet yet({{{1, 1}}, {{2, 1}}}, 2);
  AnalysisSession session;
  for (const std::size_t layers : {1, 2}) {
    std::vector<Layer> book = {Layer{"A+B", {0, 1}, LayerTerms::identity()}};
    if (layers == 2) book.push_back(Layer{"B", {1}, LayerTerms::identity()});
    const Portfolio portfolio(elts, std::move(book));
    for (const bool use_float : {false, true}) {
      const EngineKind kind = use_float ? EngineKind::kGpuOptimized
                                        : EngineKind::kSequentialFused;
      const std::string what = std::to_string(layers) + "L/" +
                               (use_float ? "f32" : "f64");
      const Ylt scalar = run_with(session, portfolio, yet, kind,
                                  simd::SimdPolicy::kScalar, use_float, 0);
      ASSERT_EQ(scalar.annual_loss(0, 0), 100.0) << what;
      ASSERT_EQ(scalar.annual_loss(0, 1), 50.0) << what;
      if (layers == 2) {
        ASSERT_EQ(scalar.annual_loss(1, 0), 0.0) << what;
      }
      expect_close(run_with(session, portfolio, yet, kind,
                            simd::SimdPolicy::kAuto, use_float, 0),
                   scalar, use_float ? 1e-5 : 1e-9, what + "/auto");
    }
  }
}

// --- dispatch ------------------------------------------------------

TEST(SimdDispatch, ScalarPolicyAlwaysSelectsScalar) {
  const auto k = simd::select_kernel<double>(simd::SimdPolicy::kScalar);
  EXPECT_EQ(k.isa, simd::IsaLevel::kScalar);
  EXPECT_STREQ(simd::isa_name(k.isa), "scalar");
}

TEST(SimdDispatch, AutoSelectsTheScalarKernel) {
  const auto scalar = simd::select_kernel<double>(simd::SimdPolicy::kScalar);
  const auto d = simd::select_kernel<double>(simd::SimdPolicy::kAuto);
  EXPECT_EQ(d.isa, simd::IsaLevel::kScalar);
  EXPECT_EQ(d.sweep, scalar.sweep);
  const auto f = simd::select_kernel<float>(simd::SimdPolicy::kAuto);
  EXPECT_EQ(f.isa, simd::IsaLevel::kScalar);
  EXPECT_EQ(f.sweep,
            simd::select_kernel<float>(simd::SimdPolicy::kScalar).sweep);
}

TEST(SimdDispatch, ForceWidthThrowsWhenOnlyScalarAvailable) {
  EXPECT_THROW(simd::select_kernel<double>(simd::SimdPolicy::kForceWidth, 0),
               std::runtime_error);
  EXPECT_THROW(simd::select_kernel<float>(simd::SimdPolicy::kForceWidth, 0),
               std::runtime_error);
}

TEST(SimdDispatch, ForceWidthRejectsUnavailableWidth) {
  // No kernel in any build provides 3 lanes.
  EXPECT_THROW(
      simd::select_kernel<double>(simd::SimdPolicy::kForceWidth, 3),
      std::runtime_error);
}

// --- remainder lanes -----------------------------------------------

// Every (layer count, ELT count) in 1..9 x 1..9: one-layer and
// multi-layer sweeps over tables summed from one to nine ELTs. The
// kernel kScalar and kAuto select must be bitwise-equal to the
// four-pass oracle, driven directly (no engine on top), so a shape bug
// cannot hide behind engine plumbing.
TEST(SimdRemainderLanes, AllSmallShapesMatchReference) {
  const synth::Catalogue catalogue = synth::Catalogue::make(200, 3, 30.0);
  synth::YetGeneratorConfig yc;
  yc.trials = 6;
  yc.seed = 41;
  const Yet yet = synth::generate_yet(catalogue, yc);

  const auto scalar = simd::select_kernel<double>(simd::SimdPolicy::kScalar);
  const auto automatic = simd::select_kernel<double>(simd::SimdPolicy::kAuto);

  for (std::size_t layers = 1; layers <= 9; ++layers) {
    for (std::size_t elts = 1; elts <= 9; ++elts) {
      synth::PortfolioGeneratorConfig pc;
      pc.elt_count = elts;
      pc.layer_count = layers;
      pc.min_elts_per_layer = elts;
      pc.max_elts_per_layer = elts;
      pc.elt.record_count = 40;
      pc.elt.mean_loss = 1500.0;
      pc.seed = 100 + layers * 10 + elts;
      const Portfolio portfolio = synth::generate_portfolio(catalogue, pc);
      const std::string what =
          std::to_string(layers) + "L x " + std::to_string(elts) + "E";

      const Ylt expect = reference_ylt<double>(portfolio, yet);
      const TableStore<double> store = build_tables<double>(portfolio);
      const simd::BoundPortfolio<double> bp =
          simd::bind_portfolio(portfolio, store);
      simd::PortfolioTrialState<double> state(bp);

      Ylt got_scalar(layers, yet.trial_count());
      Ylt got_auto(layers, yet.trial_count());
      for (TrialId t = 0; t < yet.trial_count(); ++t) {
        scalar.sweep(bp, yet.trial(t), state);
        for (std::size_t a = 0; a < layers; ++a) {
          got_scalar.annual_loss(a, t) = state.annual[a];
          got_scalar.max_occurrence_loss(a, t) = state.max_occurrence[a];
        }
        automatic.sweep(bp, yet.trial(t), state);
        for (std::size_t a = 0; a < layers; ++a) {
          got_auto.annual_loss(a, t) = state.annual[a];
          got_auto.max_occurrence_loss(a, t) = state.max_occurrence[a];
        }
      }
      expect_bitwise(got_scalar, expect, what + "/scalar");
      expect_bitwise(got_auto, expect, what + "/auto");
    }
  }
}

// --- prefetch window edges ------------------------------------------

// Trials of 0, 1, 7, 8 and 9 occurrences bracket the row-prefetch
// window (kPrefetchWindow = 8): nothing to prefetch, a window shorter
// than the trial, exactly one window, and one row beyond it. The
// catalogue's last event id reads the table's last row, at the start,
// end and just-past-the-window positions. The table is at least
// kPrefetchMinTableBytes in both precisions, even one f32 column of
// (600,000 + 1) x 4 B, so prefetch is live; one- and two-layer books
// cover the single-layer fast path and the general loop.
constexpr EventId kEdgeCatalogue = 600000;

Portfolio edge_portfolio(std::size_t layers) {
  std::vector<Elt> elts;
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<EventLoss> records;
    for (EventId e = 1; e <= kEdgeCatalogue; ++e) {
      if (e % (k + 2) == 0 || e == kEdgeCatalogue) {
        records.push_back(
            {e, 100.0 + static_cast<double>(e % 997) * (k + 1) + 0.125});
      }
    }
    FinancialTerms ft;
    ft.retention = 40.0 * static_cast<double>(k);
    ft.limit = 1500.0 + 500.0 * static_cast<double>(k);
    ft.share = 0.9 - 0.2 * static_cast<double>(k);
    elts.emplace_back(std::move(records), ft, kEdgeCatalogue);
  }
  LayerTerms capped;
  capped.occ_retention = 200.0;
  capped.agg_limit = 9000.0;
  std::vector<Layer> book = {Layer{"all", {0, 1, 2}, LayerTerms::identity()}};
  if (layers > 1) book.push_back(Layer{"capped", {2, 0}, capped});
  return Portfolio(std::move(elts), std::move(book));
}

Yet edge_yet() {
  constexpr EventId kLast = kEdgeCatalogue;
  std::vector<std::vector<EventOccurrence>> trials;
  for (const std::size_t n : {0, 1, 7, 8, 9, 9, 17}) {
    std::vector<EventOccurrence> trial;
    for (std::size_t i = 0; i < n; ++i) {
      const auto e = static_cast<EventId>(
          1 + (i * 7919 + trials.size() * 104729) % (kLast - 1));
      trial.push_back({e, static_cast<Timestamp>(i)});
    }
    trials.push_back(std::move(trial));
  }
  trials[1][0].event = kLast;  // the only occurrence
  trials[2][6].event = kLast;  // last of a short trial
  trials[3][0].event = kLast;  // first of one exact window
  trials[4][8].event = kLast;  // the first row prefetched ahead
  trials[5][7].event = kLast;
  trials[5][8].event = kLast;
  return Yet(trials, kLast);
}

template <typename Real>
Ylt sweep_ylt(const simd::SweepKernel<Real>& kernel,
              const simd::BoundPortfolio<Real>& bp, const Yet& yet) {
  simd::PortfolioTrialState<Real> state(bp);
  Ylt ylt(bp.layers, yet.trial_count());
  for (TrialId t = 0; t < yet.trial_count(); ++t) {
    kernel.sweep(bp, yet.trial(t), state);
    for (std::size_t a = 0; a < bp.layers; ++a) {
      ylt.annual_loss(a, t) = static_cast<double>(state.annual[a]);
      ylt.max_occurrence_loss(a, t) =
          static_cast<double>(state.max_occurrence[a]);
    }
  }
  return ylt;
}

template <typename Real>
void expect_window_edges_match_reference(std::size_t layers) {
  const Portfolio portfolio = edge_portfolio(layers);
  const Yet yet = edge_yet();
  const std::string what = std::to_string(layers) + "L/" +
                           (sizeof(Real) == 4 ? "f32" : "f64");
  const TableStore<Real> store = build_tables<Real>(portfolio);
  ASSERT_GE(store.bytes(), simd::kPrefetchMinTableBytes) << what;
  const simd::BoundPortfolio<Real> bp = simd::bind_portfolio(portfolio, store);
  ASSERT_NE(bp.prefetch_rows, nullptr) << what;

  const Ylt expect = reference_ylt<Real>(portfolio, yet);
  // The last event id has a loss in every ELT, so a trial that reads
  // it cannot come out 0 by accident.
  ASSERT_GT(expect.annual_loss(0, 1), 0.0) << what;
  expect_bitwise(
      sweep_ylt(simd::select_kernel<Real>(simd::SimdPolicy::kScalar), bp, yet),
      expect, what + "/scalar");
  expect_bitwise(
      sweep_ylt(simd::select_kernel<Real>(simd::SimdPolicy::kAuto), bp, yet),
      expect, what + "/auto");
}

TEST(SimdPrefetchWindow, TrialLengthsAroundWindowMatchReference) {
  for (const std::size_t layers : {1, 2}) {
    expect_window_edges_match_reference<double>(layers);
    expect_window_edges_match_reference<float>(layers);
  }
}

}  // namespace
}  // namespace ara
