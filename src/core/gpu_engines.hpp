// GPU engines on the simulated devices (see DESIGN.md §2 for the
// hardware substitution):
//
//  * GpuBasicEngine — the paper's basic CUDA implementation: one
//    thread per trial, double precision, all data structures
//    (including the per-event scratch arrays lx / lox of Algorithm 1)
//    in global memory.
//  * GpuOptimizedEngine — the paper's optimised kernel: events
//    processed in fixed-size chunks staged through shared memory,
//    float tables, unrolled inner loops, accumulators in registers,
//    terms in constant memory. Every optimisation is independently
//    toggleable through EngineConfig for the ablation benchmark; they
//    change the simulated cost, never the YLT (the functional pass is
//    the dispatched sweep for every launch shape).
//  * MultiGpuEngine — the optimised kernel with the trial range
//    decomposed evenly across N devices, one host thread per device.
//
// Each paper kernel has one plan (basic_kernel_plan,
// optimized_kernel_plan): its launch shape, kernel traits and the op
// counts with the per-event scratch traffic attributed to where the
// kernel keeps its scratch. The engines charge their launches from
// these plans, and the figure benches and the calibration test price
// the same plans at the paper's scale, so a kernel is described once.
// GpuOptimizedEngine, MultiGpuEngine and HeterogeneousMultiGpuEngine
// share one run body that differs only in its device list and trial
// split.
//
// The basic, optimised, streamed and multi-GPU kernels are trial-major
// fused (DESIGN.md §4): one launch covers every layer, with each
// thread updating all layers' accumulators from a single walk of its
// trial — so the YET slice crosses the device memory system once, not
// once per layer. Only GpuCombinedTableEngine keeps the per-layer
// launches of the paper's rejected combined-table formulation.
#pragma once

#include <cstddef>

#include "core/engine.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/gpu_cost_model.hpp"

namespace ara {

/// How one launch of a paper GPU kernel is shaped and charged.
struct KernelPlan {
  simgpu::LaunchConfig launch;
  simgpu::KernelTraits traits;
  /// The launch's op counts, with Algorithm 1's per-event scratch
  /// traffic (kScratchTouchesPerEvent per occurrence) charged to
  /// global or shared memory where the kernel keeps its scratch.
  OpCounts ops;
};

/// The basic kernel over `trials` trials doing `fused_ops` of work:
/// one thread per trial (cfg.block_threads per block, 20 registers),
/// double tables, one dependent load in flight, scratch in global
/// memory. Reads only cfg.block_threads.
KernelPlan basic_kernel_plan(const EngineConfig& cfg, std::size_t trials,
                             OpCounts fused_ops);

/// The optimised kernel over `trials` trials doing `fused_ops` of work,
/// with the paper's four optimisations as cfg toggles them: chunking
/// (chunk_size events per thread staged through shared memory, up to
/// 16 loads in flight), float tables, unrolling and register scratch
/// (63 registers per thread, else 32).
KernelPlan optimized_kernel_plan(const EngineConfig& cfg, std::size_t trials,
                                 OpCounts fused_ops);

class GpuBasicEngine final : public Engine {
 public:
  GpuBasicEngine(simgpu::DeviceSpec device, EngineConfig config)
      : device_(std::move(device)), config_(config) {}

  std::string name() const override { return "gpu_basic"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  simgpu::DeviceSpec device_;
  EngineConfig config_;
};

class GpuOptimizedEngine final : public Engine {
 public:
  GpuOptimizedEngine(simgpu::DeviceSpec device, EngineConfig config)
      : device_(std::move(device)), config_(config) {}

  std::string name() const override { return "gpu_optimized"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  simgpu::DeviceSpec device_;
  EngineConfig config_;
};

class MultiGpuEngine final : public Engine {
 public:
  MultiGpuEngine(simgpu::DeviceSpec device, std::size_t device_count,
                 EngineConfig config)
      : device_(std::move(device)),
        device_count_(device_count),
        config_(config) {}

  std::string name() const override { return "multi_gpu_optimized"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

  std::size_t device_count() const noexcept { return device_count_; }

 private:
  simgpu::DeviceSpec device_;
  std::size_t device_count_;
  EngineConfig config_;
};

/// The paper's "second implementation" (Sec. III): the layer's ELTs
/// merged into a single row-major combined table, with threads
/// cooperatively loading whole rows through shared memory. The paper
/// measured it slower than independent tables — "for the threads to
/// collectively load from the combined ELT each thread must first
/// write which event it needs", adding shared-memory traffic and a
/// block synchronisation per row. This engine reproduces that variant
/// (functionally it reads the shared event-major TableStore, which is
/// that combined table, so results are identical; the cost model
/// charges the extra coordination traffic).
class GpuCombinedTableEngine final : public Engine {
 public:
  GpuCombinedTableEngine(simgpu::DeviceSpec device, EngineConfig config)
      : device_(std::move(device)), config_(config) {}

  std::string name() const override { return "gpu_combined_table"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  simgpu::DeviceSpec device_;
  EngineConfig config_;
};

/// Out-of-core variant of the optimised engine: when the YET does not
/// fit in device memory next to the loss tables (the constraint that
/// shapes the paper's data layout — a full-precision 1e9-event YET
/// would not fit the 5.375 GB cards), the trial range is streamed
/// through the device in batches sized to the remaining memory. Each
/// batch is shipped, processed and freed before the next; results are
/// identical to the in-core engine.
class StreamedGpuEngine final : public Engine {
 public:
  StreamedGpuEngine(simgpu::DeviceSpec device, EngineConfig config)
      : device_(std::move(device)), config_(config) {}

  std::string name() const override { return "gpu_streamed"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

  /// Number of batches the given workload needs on this device, 0 when
  /// the loss tables alone do not fit (diagnostics/tests).
  std::size_t batch_count(const Portfolio& portfolio, const Yet& yet) const;

 private:
  simgpu::DeviceSpec device_;
  EngineConfig config_;
};

/// Multi-GPU engine over *heterogeneous* devices (e.g. a C2075 next to
/// M2090s): trials are split proportionally to each device's modelled
/// random-lookup throughput, so all devices finish together instead of
/// the platform waiting on the slowest card — the load-balancing
/// question the paper's homogeneous 4-GPU machine never had to answer.
class HeterogeneousMultiGpuEngine final : public Engine {
 public:
  HeterogeneousMultiGpuEngine(std::vector<simgpu::DeviceSpec> devices,
                              EngineConfig config);

  std::string name() const override { return "hetero_multi_gpu"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

  /// Relative throughput weights used for the trial split (normalised
  /// to sum to 1; exposed for tests).
  const std::vector<double>& weights() const noexcept { return weights_; }

 private:
  std::vector<simgpu::DeviceSpec> devices_;
  std::vector<double> weights_;
  EngineConfig config_;
};

/// Shared-memory footprint of the optimised kernel for a given block
/// shape: each thread stages `chunk_size` (event id, loss) pairs, plus
/// a fixed per-block slab for the layer/financial terms. Exposed so
/// tests and benches can reason about the Figure 4 feasibility edge.
std::size_t optimized_shared_bytes(unsigned block_threads,
                                   unsigned chunk_size);

/// Device-resident bytes of a YET slice ([trial_begin, trial_end)) as
/// shipped to a device: 4-byte event ids plus 8-byte trial offsets.
/// Exposed for capacity planning (tests size memory-bound devices with
/// it).
std::uint64_t yet_device_bytes(const Yet& yet, std::size_t trial_begin,
                               std::size_t trial_end);

/// Device-resident bytes of the portfolio's direct-access loss tables
/// at the given precision (one table per (layer, ELT)).
std::uint64_t tables_device_bytes(const Portfolio& p, unsigned loss_bytes);

}  // namespace ara
