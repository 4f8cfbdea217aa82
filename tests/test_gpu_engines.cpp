#include "core/gpu_engines.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/engine_factory.hpp"
#include "core/reference_engine.hpp"
#include "core/session.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

TEST(GpuBasicEngine, SimulatedTimeScalesWithBlockSizeShape) {
  // Fig. 2's shape: < 128 threads/block noticeably worse; 256 best or
  // tied; beyond 256 no improvement.
  const synth::Scenario s = synth::tiny(64);
  auto run_sim = [&](unsigned block) {
    EngineConfig cfg;
    cfg.block_threads = block;
    GpuBasicEngine engine(simgpu::tesla_c2075(), cfg);
    return engine.run(s.portfolio, s.yet).simulated_seconds;
  };
  const double t64 = run_sim(64);
  const double t128 = run_sim(128);
  const double t256 = run_sim(256);
  const double t384 = run_sim(384);
  const double t512 = run_sim(512);
  EXPECT_GT(t64, t128 * 1.05);   // "at least 128 required"
  EXPECT_GT(t128, t256);         // improvement up to 256
  EXPECT_NEAR(t384 / t256, 1.0, 0.05);  // flat beyond
  EXPECT_NEAR(t512 / t256, 1.0, 0.05);
}

TEST(GpuOptimizedEngine, FasterThanBasicInSimulatedTime) {
  // The paper: 38.47 s -> 20.63 s, roughly 1.9x.
  const synth::Scenario s = synth::paper_scaled(20000);
  EngineConfig basic_cfg = paper_config(EngineKind::kGpuBasic);
  EngineConfig opt_cfg = paper_config(EngineKind::kGpuOptimized);
  GpuBasicEngine basic(simgpu::tesla_c2075(), basic_cfg);
  GpuOptimizedEngine opt(simgpu::tesla_c2075(), opt_cfg);
  const double tb = basic.run(s.portfolio, s.yet).simulated_seconds;
  const double to = opt.run(s.portfolio, s.yet).simulated_seconds;
  EXPECT_NEAR(tb / to, 1.9, 0.35);
}

TEST(GpuOptimizedEngine, SharedMemoryFootprint) {
  // 32-thread blocks with the default 88-event chunk: two blocks per
  // Fermi SM; 64 threads: one block; 128 threads: infeasible (Fig. 4).
  EXPECT_LE(optimized_shared_bytes(32, 88), 24u * 1024);
  EXPECT_LE(optimized_shared_bytes(64, 88), 48u * 1024);
  EXPECT_GT(optimized_shared_bytes(128, 88), 48u * 1024);
}

TEST(GpuOptimizedEngine, OversizedBlockThrowsSharedOverflow) {
  const synth::Scenario s = synth::tiny(8);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.block_threads = 128;  // beyond the paper's feasible range
  GpuOptimizedEngine engine(simgpu::tesla_c2075(), cfg);
  EXPECT_THROW(engine.run(s.portfolio, s.yet), std::runtime_error);
}

TEST(GpuOptimizedEngine, BlockOf32BeatsOtherFeasibleSizes) {
  // Fig. 4: best at 32 (the warp size); 16 and 64 are worse.
  const synth::Scenario s = synth::tiny(64);
  auto run_sim = [&](unsigned block) {
    EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
    cfg.block_threads = block;
    GpuOptimizedEngine engine(simgpu::tesla_m2090(), cfg);
    return engine.run(s.portfolio, s.yet).simulated_seconds;
  };
  const double t16 = run_sim(16);
  const double t32 = run_sim(32);
  const double t64 = run_sim(64);
  EXPECT_LT(t32, t16);
  EXPECT_LT(t32, t64);
}

TEST(GpuOptimizedEngine, FloatAndDoubleBothMatchReference) {
  const synth::Scenario s = synth::tiny(32);
  ReferenceEngine ref;
  const auto expect = ref.run(s.portfolio, s.yet);
  for (const bool use_float : {false, true}) {
    EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
    cfg.use_float = use_float;
    GpuOptimizedEngine engine(simgpu::tesla_c2075(), cfg);
    const auto got = engine.run(s.portfolio, s.yet);
    const double tol = use_float ? 1e-3 : 0.0;
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
        ASSERT_NEAR(got.ylt.annual_loss(l, t), expect.ylt.annual_loss(l, t),
                    tol * (1.0 + expect.ylt.annual_loss(l, t)));
      }
    }
  }
}

TEST(GpuOptimizedEngine, FloatLookupFasterThanDouble) {
  // The paper's precision-reduction optimisation must show in the
  // simulated lookup rate (f32 tables have higher effective random
  // throughput).
  const synth::Scenario s = synth::tiny(32);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.use_float = true;
  GpuOptimizedEngine f32(simgpu::tesla_c2075(), cfg);
  cfg.use_float = false;
  GpuOptimizedEngine f64(simgpu::tesla_c2075(), cfg);
  EXPECT_LT(f32.run(s.portfolio, s.yet).simulated_seconds,
            f64.run(s.portfolio, s.yet).simulated_seconds);
}

TEST(GpuEngines, LookupDominatesSimulatedProfile) {
  // The paper: on the optimised GPU, ~97% of time is loss lookup.
  const synth::Scenario s = synth::paper_scaled(20000);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  GpuOptimizedEngine engine(simgpu::tesla_c2075(), cfg);
  const SimulationResult r = engine.run(s.portfolio, s.yet);
  const double lookup = r.simulated_phases[perf::Phase::kLossLookup];
  EXPECT_GT(lookup / r.simulated_seconds, 0.90);
}

TEST(GpuEngines, TransferExcludedFromHeadlineTime) {
  const synth::Scenario s = synth::tiny(16);
  EngineConfig cfg = paper_config(EngineKind::kGpuBasic);
  GpuBasicEngine engine(simgpu::tesla_c2075(), cfg);
  const SimulationResult r = engine.run(s.portfolio, s.yet);
  EXPECT_GT(r.simulated_phases[perf::Phase::kTransfer], 0.0);
  EXPECT_NEAR(r.simulated_seconds +
                  r.simulated_phases[perf::Phase::kTransfer],
              r.simulated_phases.total(), 1e-12);
}

// A zero launch shape is rejected up front, naming the field, instead of
// dividing by zero (block_threads) or simulating an infinite time
// (chunk_size with chunking on).
void expect_rejects(const std::function<void()>& run, const std::string& field,
                    const std::string& what) {
  try {
    run();
    ADD_FAILURE() << what << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << what << ": " << e.what();
  }
}

EngineConfig gpu_config(EngineKind kind, unsigned block_threads,
                        unsigned chunk_size) {
  EngineConfig cfg = paper_config(kind);
  cfg.block_threads = block_threads;
  cfg.chunk_size = chunk_size;
  return cfg;
}

TEST(ZeroLaunchShape, MakeEngineRejectsNamingTheField) {
  for (const EngineKind kind : {EngineKind::kGpuBasic,
                                EngineKind::kGpuOptimized,
                                EngineKind::kMultiGpu}) {
    ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
    policy.config = gpu_config(kind, 0, 88);
    expect_rejects([&] { (void)make_engine(policy); }, "block_threads",
                   engine_kind_name(kind) + " block_threads=0");
    policy.config = gpu_config(kind, 32, 0);
    expect_rejects([&] { (void)make_engine(policy); }, "chunk_size",
                   engine_kind_name(kind) + " chunk_size=0");
  }
}

TEST(ZeroLaunchShape, ZeroChunkWithoutChunkingIsAccepted) {
  const synth::Scenario s = synth::tiny(16);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kGpuOptimized);
  EngineConfig cfg = gpu_config(EngineKind::kGpuOptimized, 32, 0);
  cfg.chunking = false;
  policy.config = cfg;
  const SimulationResult r = make_engine(policy)->run(s.portfolio, s.yet);
  EXPECT_TRUE(std::isfinite(r.simulated_seconds));
  EXPECT_GT(r.simulated_seconds, 0.0);
}

TEST(ZeroLaunchShape, AutoSessionRejectsNamingTheField) {
  const synth::Scenario s = synth::tiny(16);
  AnalysisSession session;
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  ExecutionPolicy policy = ExecutionPolicy::auto_select();
  policy.config = gpu_config(EngineKind::kGpuOptimized, 0, 88);
  request.policy = policy;
  expect_rejects([&] { (void)session.run(request); }, "block_threads",
                 "auto block_threads=0");
  policy.config = gpu_config(EngineKind::kGpuOptimized, 32, 0);
  request.policy = policy;
  expect_rejects([&] { (void)session.run(request); }, "chunk_size",
                 "auto chunk_size=0");
}

}  // namespace
}  // namespace ara
