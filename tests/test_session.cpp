// AnalysisSession façade: the session must be a faithful superset of
// the one-shot Engine::run path — bitwise-identical YLTs per engine
// kind, deterministic order-independent batches, and a kAuto mode that
// picks exactly what the cost models rank cheapest.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

void expect_bitwise_equal_ylt(const Ylt& a, const Ylt& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  ASSERT_EQ(a.trial_count(), b.trial_count());
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (TrialId t = 0; t < a.trial_count(); ++t) {
      ASSERT_EQ(a.annual_loss(l, t), b.annual_loss(l, t))
          << "layer " << l << " trial " << t;
      ASSERT_EQ(a.max_occurrence_loss(l, t), b.max_occurrence_loss(l, t))
          << "layer " << l << " trial " << t;
    }
  }
}

class SessionVsLegacy : public ::testing::TestWithParam<EngineKind> {};

// (a) For every engine kind, the session produces the YLT the legacy
// make_engine/Engine::run path produces, bit for bit.
TEST_P(SessionVsLegacy, BitwiseIdenticalToDirectEngineRun) {
  const EngineKind kind = GetParam();
  const synth::Scenario s = synth::multi_layer_book(4, 200, 22);

  const auto legacy = make_engine(ExecutionPolicy::with_engine(kind));
  const SimulationResult direct = legacy->run(s.portfolio, s.yet);

  AnalysisSession session(ExecutionPolicy::with_engine(kind));
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  const AnalysisResult result = session.run(request);

  ASSERT_TRUE(result.engine.has_value());
  EXPECT_EQ(*result.engine, kind);
  EXPECT_FALSE(result.auto_selected);
  EXPECT_EQ(result.simulation.engine_name, direct.engine_name);
  EXPECT_EQ(result.simulation.ops, direct.ops);
  EXPECT_DOUBLE_EQ(result.simulation.simulated_seconds,
                   direct.simulated_seconds);
  expect_bitwise_equal_ylt(result.simulation.ylt, direct.ylt);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SessionVsLegacy, ::testing::ValuesIn(all_engine_kinds()),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return engine_kind_name(info.param);
    });

// (b) run_batch: many portfolios against ONE shared YET; outputs are
// in request order, equal to solo runs, and independent of submission
// order.
TEST(SessionBatch, DeterministicAndOrderIndependent) {
  const synth::Scenario s = synth::multi_layer_book(6, 300, 7);

  // Carve three single-layer portfolios out of the book, all priced
  // against the same YET (held by reference — no copies).
  std::vector<Portfolio> books;
  for (std::size_t l = 0; l < 3; ++l) {
    books.emplace_back(s.portfolio.elts(),
                       std::vector<Layer>{s.portfolio.layers()[l]});
  }

  std::vector<AnalysisRequest> requests;
  for (std::size_t i = 0; i < books.size(); ++i) {
    AnalysisRequest r;
    r.label = "book_" + std::to_string(i);
    r.portfolio = &books[i];
    r.yet = &s.yet;
    r.metrics = MetricsSpec::layer_summaries();
    requests.push_back(std::move(r));
  }

  AnalysisSession session(ExecutionPolicy::with_engine(EngineKind::kMultiGpu));
  const std::vector<AnalysisResult> batch = session.run_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());

  // Batch output equals solo runs (request order preserved).
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i].label, requests[i].label);
    const AnalysisResult solo = session.run(requests[i]);
    expect_bitwise_equal_ylt(batch[i].simulation.ylt, solo.simulation.ylt);
    ASSERT_EQ(batch[i].metrics.layers.size(), 1u);
    EXPECT_EQ(batch[i].metrics.layers[0].aal, solo.metrics.layers[0].aal);
    // The by-name lookup resolves to the same entry as the index.
    const metrics::LayerMetrics* by_name =
        batch[i].metrics_for(books[i].layers()[0].name);
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name->aal, batch[i].metrics.layers[0].aal);
  }

  // Reversed submission order: per-label results unchanged.
  std::vector<AnalysisRequest> reversed(requests.rbegin(), requests.rend());
  const std::vector<AnalysisResult> rev = session.run_batch(reversed);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const AnalysisResult& fwd = batch[i];
    const AnalysisResult& bwd = rev[requests.size() - 1 - i];
    EXPECT_EQ(fwd.label, bwd.label);
    expect_bitwise_equal_ylt(fwd.simulation.ylt, bwd.simulation.ylt);
  }

  // Repeat run: bitwise identical (determinism).
  const std::vector<AnalysisResult> again = session.run_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bitwise_equal_ylt(batch[i].simulation.ylt,
                             again[i].simulation.ylt);
  }
}

// (c) kAuto runs exactly the engine the cost models rank cheapest.
TEST(SessionAuto, PicksCheapestPredictedEngine) {
  const synth::Scenario s = synth::paper_scaled(20000, 33);

  AnalysisSession session(ExecutionPolicy::auto_select());
  const std::vector<EnginePrediction> predictions =
      session.predict(s.portfolio, s.yet);
  ASSERT_EQ(predictions.size(), all_engine_kinds().size());

  const EnginePrediction* best = nullptr;
  for (const EnginePrediction& p : predictions) {
    if (!p.feasible) continue;
    if (!best || p.seconds < best->seconds) best = &p;
  }
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(session.choose_engine(s.portfolio, s.yet), best->kind);

  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  const AnalysisResult result = session.run(request);
  ASSERT_TRUE(result.engine.has_value());
  EXPECT_EQ(*result.engine, best->kind);
  EXPECT_TRUE(result.auto_selected);
  EXPECT_DOUBLE_EQ(result.predicted_seconds, best->seconds);
}

// On a paper-shaped workload the predictions must reproduce the
// paper's Figure 5 ranking: multi-GPU < optimised GPU < basic GPU <
// multi-core < sequential.
TEST(SessionAuto, PredictionsReproducePaperRanking) {
  const synth::Scenario s = synth::paper_scaled(20000, 33);
  AnalysisSession session;
  const std::vector<EnginePrediction> predictions =
      session.predict(s.portfolio, s.yet);

  auto seconds = [&](EngineKind kind) {
    for (const EnginePrediction& p : predictions) {
      if (p.kind == kind) {
        EXPECT_TRUE(p.feasible) << engine_kind_name(kind);
        return p.seconds;
      }
    }
    ADD_FAILURE() << "missing prediction for " << engine_kind_name(kind);
    return 0.0;
  };

  const double t_multi = seconds(EngineKind::kMultiGpu);
  const double t_opt = seconds(EngineKind::kGpuOptimized);
  const double t_basic = seconds(EngineKind::kGpuBasic);
  const double t_mc = seconds(EngineKind::kMultiCore);
  const double t_seq = seconds(EngineKind::kSequentialReference);
  EXPECT_LT(t_multi, t_opt);
  EXPECT_LT(t_opt, t_basic);
  EXPECT_LT(t_basic, t_mc);
  EXPECT_LT(t_mc, t_seq);
}

// A prediction is the engine's own cost-only run, so running the
// predicted kind charges exactly the predicted simulated seconds, and a
// kAuto run reports the time it was chosen for.
TEST(SessionAuto, PredictionMatchesEngineSimulatedTime) {
  EngineConfig plain = paper_config(EngineKind::kGpuOptimized);
  plain.use_float = false;
  plain.chunking = false;
  plain.use_registers = false;
  struct Case {
    const char* name;
    synth::Scenario s;
    std::optional<EngineConfig> config;
  };
  std::vector<Case> cases;
  cases.push_back({"book", synth::multi_layer_book(3, 150, 5), std::nullopt});
  cases.push_back({"paper", synth::paper_scaled(20000, 33), std::nullopt});
  cases.push_back({"paper, optimisations off", synth::paper_scaled(20000, 33),
                   plain});

  for (const Case& c : cases) {
    ExecutionPolicy policy = ExecutionPolicy::auto_select();
    policy.config = c.config;
    AnalysisSession session(policy);
    AnalysisRequest request;
    request.portfolio = &c.s.portfolio;
    request.yet = &c.s.yet;
    for (const EnginePrediction& p : session.predict(c.s.portfolio, c.s.yet)) {
      ASSERT_TRUE(p.feasible) << c.name << ": " << engine_kind_name(p.kind);
      ExecutionPolicy concrete = policy;
      concrete.engine = p.kind;
      request.policy = concrete;
      EXPECT_EQ(session.run(request).simulation.simulated_seconds, p.seconds)
          << c.name << ": " << engine_kind_name(p.kind);
    }
    request.policy.reset();
    const AnalysisResult chosen = session.run(request);
    EXPECT_TRUE(chosen.auto_selected);
    EXPECT_EQ(chosen.predicted_seconds, chosen.simulation.simulated_seconds)
        << c.name;
  }
}

bool is_gpu_kind(EngineKind kind) {
  return kind == EngineKind::kGpuBasic || kind == EngineKind::kGpuOptimized ||
         kind == EngineKind::kMultiGpu;
}

// A device too small for the inputs refuses every GPU kind's
// allocation: each is infeasible, naming device memory, and kAuto runs
// a CPU kind.
TEST(SessionAuto, DeviceMemoryRefusalMakesGpuKindsInfeasible) {
  const synth::Scenario s = synth::paper_scaled(20000, 33);
  ExecutionPolicy policy = ExecutionPolicy::auto_select();
  policy.gpu_device.global_mem_bytes = 4 * 1024;
  policy.multi_gpu_device.global_mem_bytes = 4 * 1024;
  AnalysisSession session(policy);
  for (const EnginePrediction& p : session.predict(s.portfolio, s.yet)) {
    EXPECT_EQ(p.feasible, !is_gpu_kind(p.kind)) << engine_kind_name(p.kind);
    if (is_gpu_kind(p.kind)) {
      EXPECT_NE(p.note.find("device memory"), std::string::npos) << p.note;
    }
  }
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  const AnalysisResult result = session.run(request);
  ASSERT_TRUE(result.engine.has_value());
  EXPECT_FALSE(is_gpu_kind(*result.engine)) << engine_kind_name(*result.engine);
  EXPECT_EQ(result.predicted_seconds, result.simulation.simulated_seconds);
}

// Figure 4's edge: at 128 threads per block the optimised kernel's
// staged chunks overflow shared memory and the occupancy model refuses
// its launch; the basic kernel stages nothing and still runs.
TEST(SessionAuto, InfeasibleLaunchNamesTheLimiter) {
  const synth::Scenario s = synth::paper_scaled(20000, 33);
  ExecutionPolicy policy = ExecutionPolicy::auto_select();
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.block_threads = 128;
  policy.config = cfg;
  const AnalysisSession session(policy);
  for (const EnginePrediction& p : session.predict(s.portfolio, s.yet)) {
    const bool staged = p.kind == EngineKind::kGpuOptimized ||
                        p.kind == EngineKind::kMultiGpu;
    EXPECT_EQ(p.feasible, !staged) << engine_kind_name(p.kind);
    if (staged) EXPECT_EQ(p.note, "shared_memory_per_block");
  }
}

// Without GPUs the multi-GPU kind has no device to run on; kAuto still
// picks and runs another kind.
TEST(SessionAuto, ZeroGpusMakesMultiGpuInfeasible) {
  const synth::Scenario s = synth::tiny(64, 11);
  ExecutionPolicy policy = ExecutionPolicy::auto_select();
  policy.gpu_count = 0;
  AnalysisSession session(policy);
  for (const EnginePrediction& p : session.predict(s.portfolio, s.yet)) {
    EXPECT_EQ(p.feasible, p.kind != EngineKind::kMultiGpu)
        << engine_kind_name(p.kind);
    if (!p.feasible) EXPECT_EQ(p.note, "gpu_count is zero");
  }
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  const AnalysisResult result = session.run(request);
  ASSERT_TRUE(result.engine.has_value());
  EXPECT_NE(*result.engine, EngineKind::kMultiGpu);
  EXPECT_EQ(result.simulation.ylt.trial_count(), s.yet.trial_count());
}

// An unsatisfiable SIMD width is an error, not an infeasible kind:
// pricing around it would quietly send kAuto to sequential_reference,
// which ignores the SIMD policy.
TEST(SessionAuto, UnsatisfiableForcedWidthStillThrows) {
  const synth::Scenario s = synth::tiny(64, 11);
  ExecutionPolicy policy = ExecutionPolicy::auto_select();
  policy.simd = simd::SimdPolicy::kForceWidth;
  policy.simd_width = 3;  // no ISA has three lanes
  AnalysisSession session(policy);
  EXPECT_THROW((void)session.predict(s.portfolio, s.yet), std::runtime_error);
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  EXPECT_THROW((void)session.run(request), std::runtime_error);
}

// The engine cache keys on every device field: a device that differs
// only in global memory gets its own engine, so the 4 KiB device
// refuses the run and the full one accepts it, whichever the session
// saw first.
TEST(SessionEngineCache, DeviceDifferingOnlyInMemoryGetsItsOwnEngine) {
  const synth::Scenario s = synth::paper_scaled(20000, 33);
  const ExecutionPolicy full =
      ExecutionPolicy::with_engine(EngineKind::kGpuBasic);
  ExecutionPolicy small = full;
  small.gpu_device.global_mem_bytes = 4 * 1024;
  for (const bool small_first : {false, true}) {
    AnalysisSession session;
    AnalysisRequest request;
    request.portfolio = &s.portfolio;
    request.yet = &s.yet;
    const auto run = [&](const ExecutionPolicy& policy) {
      request.policy = policy;
      return session.run(request);
    };
    if (small_first) {
      EXPECT_THROW(run(small), DeviceMemoryExhausted);
      EXPECT_NO_THROW(run(full));
    } else {
      EXPECT_NO_THROW(run(full));
      EXPECT_THROW(run(small), DeviceMemoryExhausted);
    }
  }
}

// Extension hooks ride along with a normal analysis.
TEST(SessionExtensions, ReinstatementHookFillsResult) {
  const synth::Scenario s = synth::tiny(64, 11);

  ext::ReinstatementTerms terms;
  terms.occ_retention = 1000.0;
  terms.occ_limit = 50000.0;
  terms.reinstatements = 2;
  terms.premium_rate = 1.0;
  terms.upfront_premium = 1.0;

  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  request.reinstatement_terms.assign(s.portfolio.layer_count(), terms);

  AnalysisSession session(
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  const AnalysisResult result = session.run(request);
  ASSERT_TRUE(result.reinstatements.has_value());
  EXPECT_EQ(result.reinstatements->layer_count(), s.portfolio.layer_count());
  EXPECT_EQ(result.reinstatements->trial_count(), s.yet.trial_count());
  EXPECT_GE(result.reinstatements->expected_recovery(0), 0.0);
}

// A pure extension pass: core_simulation=false skips the engine run
// (no YLT) but still prices the treaty.
TEST(SessionExtensions, ReinstatementOnlySkipsCoreSimulation) {
  const synth::Scenario s = synth::tiny(64, 11);

  ext::ReinstatementTerms terms;
  terms.occ_limit = 50000.0;

  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  request.core_simulation = false;
  request.reinstatement_terms.assign(s.portfolio.layer_count(), terms);

  AnalysisSession session;
  const AnalysisResult result = session.run(request);
  EXPECT_FALSE(result.engine.has_value());
  EXPECT_EQ(result.simulation.ylt.layer_count(), 0u);
  ASSERT_TRUE(result.reinstatements.has_value());
  EXPECT_EQ(result.reinstatements->trial_count(), s.yet.trial_count());

  // Disabling the core run with no extension requested is an error.
  AnalysisRequest empty;
  empty.portfolio = &s.portfolio;
  empty.yet = &s.yet;
  empty.core_simulation = false;
  EXPECT_THROW(session.run(empty), std::invalid_argument);
}

TEST(SessionExtensions, SecondaryUncertaintyReplacesEngine) {
  const synth::Scenario s = synth::tiny(64, 11);

  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  request.secondary_uncertainty = ext::SecondaryUncertaintyConfig{};

  AnalysisSession session;
  const AnalysisResult result = session.run(request);
  EXPECT_FALSE(result.engine.has_value());
  EXPECT_EQ(result.simulation.engine_name, "secondary_uncertainty");
  EXPECT_EQ(result.simulation.ylt.trial_count(), s.yet.trial_count());
}

// Session-level table caching: repeated requests against one
// portfolio bind tables once, and cached-table runs stay bitwise
// identical to cold runs for every engine kind.
TEST(SessionTableCache, CachedRunsBitwiseIdenticalToColdRuns) {
  const synth::Scenario s = synth::multi_layer_book(4, 150, 31);

  for (const EngineKind kind : all_engine_kinds()) {
    AnalysisSession session(ExecutionPolicy::with_engine(kind));
    AnalysisRequest request;
    request.portfolio = &s.portfolio;
    request.yet = &s.yet;

    const AnalysisResult cold = session.run(request);  // builds the cache
    EXPECT_EQ(session.cached_table_portfolios(), 1u);
    const AnalysisResult warm = session.run(request);  // served from it
    expect_bitwise_equal_ylt(cold.simulation.ylt, warm.simulation.ylt);

    // A fresh session (cold again) agrees too.
    AnalysisSession fresh(ExecutionPolicy::with_engine(kind));
    expect_bitwise_equal_ylt(fresh.run(request).simulation.ylt,
                             cold.simulation.ylt);

    session.invalidate_tables(s.portfolio);
    EXPECT_EQ(session.cached_table_portfolios(), 0u);
    expect_bitwise_equal_ylt(session.run(request).simulation.ylt,
                             cold.simulation.ylt);
  }
}

// One shared YET, several portfolios, cached tables per portfolio —
// the batch shape the session exists for — with extension hooks riding
// along.
TEST(SessionBatch, SharedYetBatchWithExtensionsUsesTableCache) {
  const synth::Scenario s = synth::multi_layer_book(4, 120, 53);

  std::vector<Portfolio> books;
  for (std::size_t l = 0; l < 3; ++l) {
    books.emplace_back(s.portfolio.elts(),
                       std::vector<Layer>{s.portfolio.layers()[l]});
  }

  ext::ReinstatementTerms terms;
  terms.occ_retention = 500.0;
  terms.occ_limit = 40000.0;
  terms.reinstatements = 1;

  std::vector<AnalysisRequest> requests;
  for (std::size_t i = 0; i < books.size(); ++i) {
    AnalysisRequest r;
    r.label = "book_" + std::to_string(i);
    r.portfolio = &books[i];
    r.yet = &s.yet;
    r.metrics = MetricsSpec::all();
    r.reinstatement_terms.assign(books[i].layer_count(), terms);
    requests.push_back(std::move(r));
  }
  // A secondary-uncertainty request against the full book rides in the
  // same batch (it replaces the engine but shares the table cache).
  AnalysisRequest su;
  su.label = "secondary";
  su.portfolio = &s.portfolio;
  su.yet = &s.yet;
  su.secondary_uncertainty = ext::SecondaryUncertaintyConfig{};
  requests.push_back(std::move(su));

  AnalysisSession session(
      ExecutionPolicy::with_engine(EngineKind::kMultiCore));
  const std::vector<AnalysisResult> batch = session.run_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  // One cache entry per distinct portfolio (3 books + the full book).
  EXPECT_EQ(session.cached_table_portfolios(), 4u);

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].label, requests[i].label);
    ASSERT_TRUE(batch[i].reinstatements.has_value());
    EXPECT_EQ(batch[i].reinstatements->trial_count(), s.yet.trial_count());
    ASSERT_EQ(batch[i].metrics.layers.size(), 1u);
    const AnalysisResult solo = session.run(requests[i]);
    expect_bitwise_equal_ylt(batch[i].simulation.ylt, solo.simulation.ylt);
    EXPECT_EQ(batch[i].metrics.layers[0].aal, solo.metrics.layers[0].aal);
  }
  EXPECT_EQ(batch[3].simulation.engine_name, "secondary_uncertainty");
  expect_bitwise_equal_ylt(batch[3].simulation.ylt,
                           session.run(requests[3]).simulation.ylt);
}

TEST(SessionPolicy, FactoryRejectsAutoWithoutWorkload) {
  EXPECT_THROW(make_engine(ExecutionPolicy::auto_select()),
               std::invalid_argument);
}

TEST(SessionPolicy, RequestValidation) {
  AnalysisSession session;
  AnalysisRequest request;  // no portfolio / yet
  EXPECT_THROW(session.run(request), std::invalid_argument);
}

}  // namespace
}  // namespace ara
