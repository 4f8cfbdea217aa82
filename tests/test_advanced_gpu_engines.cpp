#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_factory.hpp"
#include "core/gpu_engines.hpp"
#include "core/reference_engine.hpp"
#include "four_pass_reference.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

// A deliberately tiny device: forces the streamed engine to batch.
simgpu::DeviceSpec tiny_memory_device() {
  simgpu::DeviceSpec d = simgpu::tesla_m2090();
  d.global_mem_bytes = 8 * 1024;  // 8 KB: a few dozen trials per batch
  return d;
}

TEST(StreamedGpuEngine, BatchesWhenMemoryIsTight) {
  const synth::Scenario s = synth::tiny(256, 41);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  StreamedGpuEngine tight(tiny_memory_device(), cfg);
  StreamedGpuEngine roomy(simgpu::tesla_m2090(), cfg);
  EXPECT_GT(tight.batch_count(s.portfolio, s.yet), 1u);
  EXPECT_EQ(roomy.batch_count(s.portfolio, s.yet), 1u);
}

TEST(StreamedGpuEngine, ResultsIdenticalToReferenceAcrossBatches) {
  const synth::Scenario s = synth::tiny(256, 41);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.use_float = false;
  StreamedGpuEngine engine(tiny_memory_device(), cfg);
  ReferenceEngine ref;
  const auto expect = ref.run(s.portfolio, s.yet);
  const auto got = engine.run(s.portfolio, s.yet);
  for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      ASSERT_EQ(got.ylt.annual_loss(l, t), expect.ylt.annual_loss(l, t))
          << "layer " << l << " trial " << t;
    }
  }
}

TEST(StreamedGpuEngine, FloatVariantWithinTolerance) {
  const synth::Scenario s = synth::tiny(128, 43);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.use_float = true;
  StreamedGpuEngine engine(tiny_memory_device(), cfg);
  ReferenceEngine ref;
  const auto expect = ref.run(s.portfolio, s.yet);
  const auto got = engine.run(s.portfolio, s.yet);
  for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      const double e = expect.ylt.annual_loss(l, t);
      ASSERT_NEAR(got.ylt.annual_loss(l, t), e, 1e-3 * (1.0 + e));
    }
  }
}

TEST(StreamedGpuEngine, ThrowsWhenTablesAloneDoNotFit) {
  const synth::Scenario s = synth::tiny(8, 44);
  simgpu::DeviceSpec d = simgpu::tesla_m2090();
  d.global_mem_bytes = 16;  // absurdly small
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  StreamedGpuEngine engine(d, cfg);
  EXPECT_THROW(engine.run(s.portfolio, s.yet), std::runtime_error);
  EXPECT_EQ(engine.batch_count(s.portfolio, s.yet), 0u);
}

TEST(StreamedGpuEngine, ChargesMoreTransferThanInCore) {
  // Streaming moves the same YET bytes but in batches; the YLT slices
  // are moved per batch too, so transfer time >= the in-core engine's.
  const synth::Scenario s = synth::tiny(256, 45);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  StreamedGpuEngine streamed(tiny_memory_device(), cfg);
  GpuOptimizedEngine incore(simgpu::tesla_m2090(), cfg);
  const auto a = streamed.run(s.portfolio, s.yet);
  const auto b = incore.run(s.portfolio, s.yet);
  EXPECT_GE(a.simulated_phases[perf::Phase::kTransfer],
            b.simulated_phases[perf::Phase::kTransfer] - 1e-12);
}

TEST(HeterogeneousMultiGpu, WeightsFollowThroughput) {
  EngineConfig cfg = paper_config(EngineKind::kMultiGpu);
  HeterogeneousMultiGpuEngine engine(
      {simgpu::tesla_c2075(), simgpu::tesla_m2090()}, cfg);
  ASSERT_EQ(engine.weights().size(), 2u);
  // The M2090 has more bandwidth: it must get the larger share.
  EXPECT_GT(engine.weights()[1], engine.weights()[0]);
  EXPECT_NEAR(engine.weights()[0] + engine.weights()[1], 1.0, 1e-12);
}

TEST(HeterogeneousMultiGpu, ResultsMatchReference) {
  const synth::Scenario s = synth::tiny(100, 47);
  EngineConfig cfg = paper_config(EngineKind::kMultiGpu);
  cfg.use_float = false;
  HeterogeneousMultiGpuEngine engine(
      {simgpu::tesla_c2075(), simgpu::tesla_m2090(), simgpu::tesla_m2090()},
      cfg);
  ReferenceEngine ref;
  const auto expect = ref.run(s.portfolio, s.yet);
  const auto got = engine.run(s.portfolio, s.yet);
  for (std::size_t l = 0; l < expect.ylt.layer_count(); ++l) {
    for (TrialId t = 0; t < expect.ylt.trial_count(); ++t) {
      ASSERT_EQ(got.ylt.annual_loss(l, t), expect.ylt.annual_loss(l, t));
    }
  }
}

TEST(HeterogeneousMultiGpu, BalancedFinishTimes) {
  // With throughput-proportional splitting, the simulated platform
  // time should beat an even split across unequal devices.
  const synth::Scenario s = synth::paper_scaled(100, 48);  // 10k trials
  EngineConfig cfg = paper_config(EngineKind::kMultiGpu);

  HeterogeneousMultiGpuEngine balanced(
      {simgpu::tesla_c2075(), simgpu::tesla_m2090()}, cfg);
  const double t_balanced =
      balanced.run(s.portfolio, s.yet).simulated_seconds;

  // Even split = MultiGpuEngine semantics, emulated with two equal
  // weights by using two identical platforms' worst device: the
  // C2075 processing half the trials bounds the even split below.
  EngineConfig half_cfg = cfg;
  GpuOptimizedEngine c2075(simgpu::tesla_c2075(), half_cfg);
  const synth::Scenario half = synth::paper_scaled(200, 48);  // ~half trials
  const double t_even_lower =
      c2075.run(half.portfolio, half.yet).simulated_seconds;

  EXPECT_LT(t_balanced, t_even_lower * 1.02);
}

// The paper's chunking, register scratch and unrolling change memory
// traffic, never a result: the simulator charges them through
// KernelTraits and the functional pass is the same sweep whatever the
// launch shape. Under kScalar every feasible (block_threads,
// chunk_size) shape — chunk_size 1 included — with each flag on and off
// gives the four-pass oracle's YLT bit for bit, in f64 and f32, on the
// optimised, multi-GPU and (batching) streamed engines.
TEST(LaunchShape, FunctionalPassIgnoresLaunchShape) {
  struct Shape {
    unsigned block_threads;
    unsigned chunk_size;
  };
  const Shape shapes[] = {{32, 1}, {32, 88}, {64, 40}, {128, 16}, {256, 1}};
  const std::vector<synth::Scenario> scenarios = [] {
    std::vector<synth::Scenario> v;
    v.push_back(synth::tiny(40, 3));                  // 2 layers
    v.push_back(synth::multi_layer_book(5, 40, 8));  // shared ELTs
    v.push_back(synth::paper_scaled(20000, 9));      // one layer
    return v;
  }();

  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const synth::Scenario& s = scenarios[sc];
    const Ylt expect_f64 = ReferenceEngine().run(s.portfolio, s.yet).ylt;
    const Ylt expect_f32 = four_pass_ylt<float>(s.portfolio, s.yet);
    for (const Shape& shape : shapes) {
      for (unsigned flags = 0; flags < 8; ++flags) {
        for (const bool use_float : {false, true}) {
          EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
          cfg.block_threads = shape.block_threads;
          cfg.chunk_size = shape.chunk_size;
          cfg.chunking = (flags & 1) != 0;
          cfg.unroll = (flags & 2) != 0;
          cfg.use_registers = (flags & 4) != 0;
          cfg.use_float = use_float;
          const Ylt& expect = use_float ? expect_f32 : expect_f64;

          std::vector<std::unique_ptr<Engine>> engines;
          engines.push_back(
              std::make_unique<GpuOptimizedEngine>(simgpu::tesla_c2075(), cfg));
          engines.push_back(
              std::make_unique<MultiGpuEngine>(simgpu::tesla_m2090(), 3, cfg));
          // Room for the tables plus a third of the trials: several
          // batches.
          const std::size_t n = s.yet.trial_count();
          simgpu::DeviceSpec batching = simgpu::tesla_m2090();
          batching.global_mem_bytes =
              tables_device_bytes(s.portfolio, 8) +
              (yet_device_bytes(s.yet, 0, n) +
               s.portfolio.layer_count() * n * 8) / 3;
          if (!use_float) {
            ASSERT_GT(StreamedGpuEngine(batching, cfg)
                          .batch_count(s.portfolio, s.yet),
                      1u);
          }
          engines.push_back(
              std::make_unique<StreamedGpuEngine>(batching, cfg));
          for (const auto& engine : engines) {
            const std::string what =
                engine->name() + " scenario " + std::to_string(sc) + " bt=" +
                std::to_string(shape.block_threads) +
                " chunk=" + std::to_string(shape.chunk_size) +
                " flags=" + std::to_string(flags) +
                (use_float ? " f32" : " f64");
            const Ylt got = engine->run(s.portfolio, s.yet).ylt;
            ASSERT_EQ(got.annual_raw(), expect.annual_raw()) << what;
            ASSERT_EQ(got.max_occurrence_raw(), expect.max_occurrence_raw())
                << what;
          }
        }
      }
    }
  }
}

TEST(HeterogeneousMultiGpu, SingleDeviceDegenerate) {
  const synth::Scenario s = synth::tiny(32, 49);
  EngineConfig cfg = paper_config(EngineKind::kMultiGpu);
  HeterogeneousMultiGpuEngine engine({simgpu::tesla_m2090()}, cfg);
  EXPECT_NO_THROW(engine.run(s.portfolio, s.yet));
  EXPECT_THROW(HeterogeneousMultiGpuEngine({}, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ara
