// Factory for the paper's five implementations, keyed by an enum so
// benchmarks and examples can sweep them uniformly.
//
// Engine construction is driven by an ExecutionPolicy: a named-field
// description of *how* to execute (which engine, which tunables, which
// devices, how many of them). The policy is also the unit the
// AnalysisSession façade (core/session.hpp) consumes — including its
// kAuto mode, where a cost-only run of every kind's engine prices it
// and the cheapest feasible one runs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "simgpu/device_spec.hpp"

namespace ara {

enum class EngineKind {
  kSequentialReference,  ///< (i)   sequential C++ on the CPU
  kSequentialFused,      ///< (i')  streaming variant of (i)
  kMultiCore,            ///< (ii)  multi-core CPU
  kGpuBasic,             ///< (iii) basic single-GPU
  kGpuOptimized,         ///< (iv)  optimised single-GPU
  kMultiGpu,             ///< (v)   optimised multi-GPU
};

/// All kinds, in the paper's presentation order.
std::vector<EngineKind> all_engine_kinds();

std::string engine_kind_name(EngineKind kind);

/// Inverse of engine_kind_name. Returns nullopt for unknown names.
std::optional<EngineKind> engine_kind_from_name(const std::string& name);

/// How an analysis should execute. Every knob the old positional
/// make_engine overload took silently is a named field here.
struct ExecutionPolicy {
  /// Sentinel for `engine`: let the cost models choose (resolved by
  /// AnalysisSession::choose_engine; the plain factory requires a
  /// concrete kind).
  static constexpr std::optional<EngineKind> kAuto = std::nullopt;

  /// Which implementation to run. kAuto = run every kind's engine
  /// cost-only on the workload (its exact simulated time, without the
  /// sweep) and take the cheapest kind the simulated devices accept.
  std::optional<EngineKind> engine = EngineKind::kMultiGpu;

  /// Tunables. nullopt = paper_config() of the resolved engine kind,
  /// so a default policy reproduces the paper's configuration per
  /// engine instead of freezing one EngineConfig across all kinds.
  std::optional<EngineConfig> config;

  /// Device for the single-GPU kinds (paper: Tesla C2075).
  simgpu::DeviceSpec gpu_device = simgpu::tesla_c2075();

  /// Device type and count for kMultiGpu (paper: 4x Tesla M2090).
  simgpu::DeviceSpec multi_gpu_device = simgpu::tesla_m2090();
  std::size_t gpu_count = 4;

  /// Trial-sharded streaming execution (DESIGN.md §5). `shard_trials`
  /// fixes the shard size directly; when 0, a non-zero
  /// `memory_budget_bytes` derives the largest shard whose resident
  /// YET-slice + YLT-rows footprint fits the budget. Both 0 (the
  /// default) keeps the monolithic single-shard execution. Sharding
  /// never changes results: the merged YLT, op counts and simulated
  /// seconds are bitwise identical to the monolithic run's.
  std::size_t shard_trials = 0;
  std::size_t memory_budget_bytes = 0;

  /// Hot-path SIMD mode (DESIGN.md §8). Authoritative: resolved_config
  /// copies these over whatever `config` holds, so one policy field
  /// controls every engine kind the policy may resolve to. kScalar
  /// (the default) and kAuto both run the scalar kernel, bit-identical
  /// to ReferenceEngine's four-pass loop; kForceWidth is refused.
  simd::SimdPolicy simd = simd::SimdPolicy::kScalar;
  unsigned simd_width = 0;  ///< kForceWidth: required lanes (0 = widest)

  /// True when this policy asks for the sharded execution path.
  bool sharded() const noexcept {
    return shard_trials > 0 || memory_budget_bytes > 0;
  }

  /// Convenience constructors.
  static ExecutionPolicy with_engine(EngineKind kind) {
    ExecutionPolicy p;
    p.engine = kind;
    return p;
  }
  static ExecutionPolicy auto_select() {
    ExecutionPolicy p;
    p.engine = kAuto;
    return p;
  }
};

/// The EngineConfig a policy resolves to for `kind`: the policy's own
/// config if set, otherwise the paper's configuration for that kind.
/// Throws std::invalid_argument naming the field for a zero launch
/// shape: block_threads == 0, or chunk_size == 0 with chunking on.
/// make_engine resolves through here — kAuto's pricing too, since it
/// runs the engines make_engine builds — so no engine can reach a
/// division by zero or an infinite simulated time.
EngineConfig resolved_config(const ExecutionPolicy& policy, EngineKind kind);

/// Builds the engine a policy describes. The policy must name a
/// concrete engine kind; kAuto needs a workload to price and is
/// resolved by AnalysisSession. Throws std::invalid_argument on kAuto.
/// (The old positional overload — make_engine(kind, cfg, device, ...)
/// — is gone: its trailing defaults were exactly the footgun
/// ExecutionPolicy exists to kill. Build a policy instead.)
std::unique_ptr<Engine> make_engine(const ExecutionPolicy& policy);

/// True when the engine make_engine builds for `kind` under `cfg` binds
/// float tables (EngineContext::tables_f32); false when it binds
/// tables_f64. Only the optimised GPU kinds honour use_float. Whoever
/// prebuilds tables for an engine (the session's cache, a fleet
/// process's per-job tables) builds this precision.
bool binds_float_tables(EngineKind kind, const EngineConfig& cfg);

/// The paper's configuration for each implementation (8 cores with 256
/// threads/core for the multi-core engine, 256 threads/block basic,
/// 32 threads/block optimised, 4 GPUs).
EngineConfig paper_config(EngineKind kind);

}  // namespace ara
