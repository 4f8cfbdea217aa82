// CPU engines: the fused sequential variant and the multi-core engine
// (the paper's OpenMP implementation, realised with the library's
// thread pool — one software thread per trial batch, exactly the
// paper's "single thread per trial" granularity).
//
// Both run the trial-major fused sweep (the dispatched
// `simd::SweepKernel::sweep` over `simd::bind_portfolio`'s binding):
// the YET is streamed once for all layers instead of once per layer,
// which is where the aggregate-risk hot loop's memory-access economy
// lives once portfolios have more than one contract (DESIGN.md §4).
#pragma once

#include <memory>
#include <mutex>

#include "core/engine.hpp"
#include "parallel/thread_pool.hpp"

namespace ara {

/// Streaming single-pass sequential engine; mathematically identical
/// to ReferenceEngine (property-tested) but with O(1) per-trial state
/// per layer and a single trial-major pass over the YET.
class FusedSequentialEngine final : public Engine {
 public:
  explicit FusedSequentialEngine(EngineConfig config = {})
      : config_(config) {}

  std::string name() const override { return "sequential_fused"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  EngineConfig config_;
};

/// Multi-core CPU engine (Fig. 1). `config.cores` worker threads
/// process trials in static partitions; `config.threads_per_core`
/// models the oversubscription sweep of Fig. 1b (the workers are
/// multiplied accordingly, mirroring the paper's "many threads per
/// core" runs).
///
/// The worker pool comes from the EngineContext when the caller owns
/// one (the session's persistent pool); otherwise the engine lazily
/// builds its own and caches it across runs — thread construction is
/// paid once per engine, not once per call.
class MultiCoreEngine final : public Engine {
 public:
  explicit MultiCoreEngine(EngineConfig config) : config_(config) {}
  ~MultiCoreEngine() override;  // out of line: ThreadPool is incomplete here

  std::string name() const override { return "multicore_cpu"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  parallel::ThreadPool& cached_pool() const;

  EngineConfig config_;
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace ara
