// Engine interface: the five implementations of the paper (sequential,
// multi-core CPU, basic GPU, optimised GPU, multiple GPU) plus the
// fused sequential variant all implement `Engine`.
//
// Every engine produces a real YLT (the numerical results of the
// analysis), the analytic operation counts of the run, the measured
// wall-clock time of the host execution, and the *simulated* time on
// the paper's hardware from the cost models (see DESIGN.md §2 for why
// both exist).
#pragma once

#include <memory>
#include <string>

#include "core/layer.hpp"
#include "core/simd/policy.hpp"
#include "core/types.hpp"
#include "core/yet.hpp"
#include "core/ylt.hpp"
#include "perf/phase.hpp"

namespace ara {

namespace parallel {
class ThreadPool;
}

template <typename Real>
struct TableStore;

/// Contiguous half-open range of YET trials an engine run covers. The
/// default covers every trial, so existing call sites are untouched.
/// A YLT row is produced independently per trial, which makes the
/// trial dimension exactly concatenative: a run over [b, e) produces
/// rows bitwise identical to the monolithic run's rows b..e-1 (see
/// DESIGN.md §5).
struct TrialRange {
  static constexpr std::size_t kAll = static_cast<std::size_t>(-1);

  std::size_t begin = 0;
  std::size_t end = kAll;

  /// True when the range is the whole-YET default.
  bool whole() const noexcept { return begin == 0 && end == kAll; }

  std::size_t size() const noexcept { return end - begin; }

  /// Clamps the range to an actual trial count. An empty or inverted
  /// range resolves to an empty range at `begin`.
  TrialRange resolve(std::size_t trial_count) const noexcept {
    TrialRange r;
    r.begin = begin < trial_count ? begin : trial_count;
    r.end = end < trial_count ? end : trial_count;
    if (r.end < r.begin) r.end = r.begin;
    return r;
  }

  friend bool operator==(const TrialRange&, const TrialRange&) = default;
};

/// Externally owned shared resources an engine run may draw on instead
/// of rebuilding them per call (see DESIGN.md §4). Everything is
/// optional: a null field means "build/own it yourself", so
/// `run(portfolio, yet)` with a default context behaves exactly like
/// the original one-shot API. The caller keeps the referenced objects
/// alive for the duration of the run; the tables must have been built
/// from the same portfolio that is being analysed.
struct EngineContext {
  const TableStore<double>* tables_f64 = nullptr;
  const TableStore<float>* tables_f32 = nullptr;

  /// Worker pool for host-parallel engines. May be shared by
  /// concurrent runs (the pool's barrier covers all submitted work);
  /// must NOT be the pool the caller itself is executing on, or the
  /// barrier deadlocks.
  parallel::ThreadPool* pool = nullptr;

  /// Trial shard this run covers. Defaults to the whole YET; a proper
  /// sub-range makes the engine produce a *partial* SimulationResult:
  /// a YLT of size() rows (indexed locally, placement recorded in
  /// SimulationResult::trial_begin) with op counts and simulated time
  /// charged for the range only.
  TrialRange trials{};

  /// Replay the run's cost accounting without executing the numeric
  /// sweep: op counts, simulated phases and simulated seconds are
  /// computed exactly as a real run would (the simulated timeline is a
  /// pure function of the workload shape), but the YLT stays empty.
  /// The session's shard merge uses this to reconstitute the
  /// monolithic run's accounting bitwise (DESIGN.md §5).
  bool cost_only = false;
};

/// Tunables shared by the engine family. Each engine reads the knobs
/// relevant to it and ignores the rest.
struct EngineConfig {
  // Multi-core CPU engine (Fig. 1).
  unsigned cores = 1;             ///< worker threads (paper: 1..8)
  unsigned threads_per_core = 1;  ///< oversubscription (paper: 1..256)

  // GPU engines (Figs. 2-4).
  unsigned block_threads = 256;   ///< CUDA threads per block
  unsigned chunk_size = 96;       ///< events staged per thread per chunk
  bool use_float = true;          ///< optimised kernel: float tables
  bool unroll = true;             ///< optimised kernel: loop unrolling
  bool use_registers = true;      ///< optimised kernel: register scratch
  bool chunking = true;           ///< optimised kernel: shared-mem chunking

  // Hot-path vectorization (core/simd/, DESIGN.md §8). kScalar is the
  // bitwise-reference mode — results identical to ReferenceEngine's
  // four-pass loop — and the default; kAuto dispatches the widest
  // kernel the build + host support. ExecutionPolicy carries the
  // authoritative copy; resolved_config() writes it through to here.
  simd::SimdPolicy simd = simd::SimdPolicy::kScalar;
  unsigned simd_width = 0;        ///< kForceWidth: required lanes (0 = widest)

  // Profiling.
  bool profile_phases = false;    ///< measure per-phase wall time (slower)

  friend bool operator==(const EngineConfig&, const EngineConfig&) = default;
};

/// Result of one aggregate risk analysis run. May be *partial*: when
/// the run's EngineContext named a trial sub-range, `ylt` holds only
/// that range's rows (locally indexed from 0) and `trial_begin`
/// records where they sit in the full YET, so partial results merge by
/// block copy (core/shard.hpp).
struct SimulationResult {
  std::string engine_name;
  Ylt ylt;
  OpCounts ops;

  /// Global index of the first trial `ylt` covers (0 for full runs).
  std::size_t trial_begin = 0;

  double wall_seconds = 0.0;             ///< measured host wall clock
  perf::PhaseBreakdown measured_phases;  ///< filled when profile_phases
  perf::PhaseBreakdown simulated_phases; ///< cost model, paper hardware
  double simulated_seconds = 0.0;        ///< simulated_phases.total()

  /// Devices used (1 for single-GPU engines, 0 for CPU engines).
  unsigned devices = 0;

  /// ISA of the dispatched hot-path kernel ("scalar" / "avx2" /
  /// "neon"); empty for engines that don't run the fused sweep (the
  /// reference and combined-table formulations). Recorded in the
  /// bench JSON so perf numbers are attributable to a kernel.
  std::string simd_isa;
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// Runs the full aggregate risk analysis of `portfolio` against
  /// `yet`, drawing shared resources (prebuilt tables, a persistent
  /// worker pool) from `context` where provided. Both inputs must
  /// index the same event catalogue.
  virtual SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                               const EngineContext& context) const = 0;

  /// One-shot convenience: no shared context, every resource built and
  /// owned by the run (the original paper-shaped API).
  SimulationResult run(const Portfolio& portfolio, const Yet& yet) const {
    return run(portfolio, yet, EngineContext{});
  }
};

/// Operation counts of one full analysis in the trial-major fused
/// sweep: `range_fused_ops` over every trial.
OpCounts count_fused_algorithm_ops(const Portfolio& portfolio, const Yet& yet);

/// Operation counts of a contiguous trial range (one shard's or one
/// device's share of the algorithm's work) in the paper's layer-major
/// formulation (identical for every such engine — the algorithm does
/// the same work everywhere; only the memory placement differs).
/// `global_updates` / `shared_accesses` are zero here; engines fill
/// them according to where their per-event scratch lives. Counts are
/// integers derived from the YET's offset table, so contiguous ranges
/// sum *exactly* to the whole-YET counts — the property the shard
/// merge relies on.
OpCounts range_ops(const Portfolio& p, const Yet& yet,
                   std::size_t trial_begin, std::size_t trial_end);

/// Trial-major variant of `range_ops`: the same algorithm (identical
/// lookups, financial/occurrence/aggregate applications per layer),
/// but the range's occurrences are fetched once for all layers (one
/// fused multi-layer launch instead of one launch per layer), so
/// `event_fetches` is the occurrence count instead of occurrences x
/// layers.
OpCounts range_fused_ops(const Portfolio& p, const Yet& yet,
                         std::size_t trial_begin, std::size_t trial_end);

/// Scratch traffic of Algorithm 1 per (layer, event) pair: write lx,
/// read-modify-write lox in the financial step, then the occurrence
/// clamp, prefix sum and aggregate clamp each touch lox once.
constexpr std::uint64_t kScratchTouchesPerEvent = 5;

}  // namespace ara
