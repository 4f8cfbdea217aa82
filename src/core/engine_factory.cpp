#include "core/engine_factory.hpp"

#include <stdexcept>

#include "core/cpu_engines.hpp"
#include "core/gpu_engines.hpp"
#include "core/reference_engine.hpp"

namespace ara {

std::vector<EngineKind> all_engine_kinds() {
  return {EngineKind::kSequentialReference, EngineKind::kSequentialFused,
          EngineKind::kMultiCore,           EngineKind::kGpuBasic,
          EngineKind::kGpuOptimized,        EngineKind::kMultiGpu};
}

std::string engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSequentialReference:
      return "sequential_reference";
    case EngineKind::kSequentialFused:
      return "sequential_fused";
    case EngineKind::kMultiCore:
      return "multicore_cpu";
    case EngineKind::kGpuBasic:
      return "gpu_basic";
    case EngineKind::kGpuOptimized:
      return "gpu_optimized";
    case EngineKind::kMultiGpu:
      return "multi_gpu_optimized";
  }
  throw std::invalid_argument("engine_kind_name: unknown kind");
}

std::optional<EngineKind> engine_kind_from_name(const std::string& name) {
  for (const EngineKind kind : all_engine_kinds()) {
    if (engine_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

EngineConfig resolved_config(const ExecutionPolicy& policy, EngineKind kind) {
  EngineConfig cfg = policy.config ? *policy.config : paper_config(kind);
  // A zero launch shape has no meaning: block_threads divides the grid
  // size, and a zero chunk leaves the chunked kernel nothing to stage
  // (no memory-level parallelism, an infinite simulated time).
  if (cfg.block_threads == 0) {
    throw std::invalid_argument(
        "EngineConfig::block_threads must be > 0 (got 0)");
  }
  if (cfg.chunking && cfg.chunk_size == 0) {
    throw std::invalid_argument(
        "EngineConfig::chunk_size must be > 0 when chunking is on (got 0)");
  }
  // The policy's SIMD knob is authoritative over the embedded config's
  // copy (the config field exists only because engines are constructed
  // from EngineConfig alone).
  cfg.simd = policy.simd;
  cfg.simd_width = policy.simd_width;
  return cfg;
}

std::unique_ptr<Engine> make_engine(const ExecutionPolicy& policy) {
  if (!policy.engine) {
    throw std::invalid_argument(
        "make_engine: policy.engine is kAuto; auto-selection needs a "
        "workload — use AnalysisSession");
  }
  const EngineKind kind = *policy.engine;
  const EngineConfig config = resolved_config(policy, kind);
  switch (kind) {
    case EngineKind::kSequentialReference:
      return std::make_unique<ReferenceEngine>(config);
    case EngineKind::kSequentialFused:
      return std::make_unique<FusedSequentialEngine>(config);
    case EngineKind::kMultiCore:
      return std::make_unique<MultiCoreEngine>(config);
    case EngineKind::kGpuBasic:
      return std::make_unique<GpuBasicEngine>(policy.gpu_device, config);
    case EngineKind::kGpuOptimized:
      return std::make_unique<GpuOptimizedEngine>(policy.gpu_device, config);
    case EngineKind::kMultiGpu:
      return std::make_unique<MultiGpuEngine>(policy.multi_gpu_device,
                                              policy.gpu_count, config);
  }
  throw std::invalid_argument("make_engine: unknown kind");
}

bool binds_float_tables(EngineKind kind, const EngineConfig& cfg) {
  return (kind == EngineKind::kGpuOptimized || kind == EngineKind::kMultiGpu) &&
         cfg.use_float;
}

EngineConfig paper_config(EngineKind kind) {
  EngineConfig cfg;
  switch (kind) {
    case EngineKind::kSequentialReference:
    case EngineKind::kSequentialFused:
      cfg.cores = 1;
      break;
    case EngineKind::kMultiCore:
      cfg.cores = 8;
      cfg.threads_per_core = 256;
      break;
    case EngineKind::kGpuBasic:
      cfg.block_threads = 256;  // Fig. 2's best point
      break;
    case EngineKind::kGpuOptimized:
    case EngineKind::kMultiGpu:
      cfg.block_threads = 32;  // Fig. 4's best point (the warp size)
      cfg.chunk_size = 88;
      cfg.use_float = true;
      cfg.unroll = true;
      cfg.use_registers = true;
      cfg.chunking = true;
      break;
  }
  return cfg;
}

}  // namespace ara
