// AnalysisSession: the batched, policy-driven front door of the
// library (see DESIGN.md §3).
//
// The paper's engines expose one shape of work — a single synchronous
// Engine::run(portfolio, yet). A production service prices many
// analyses against a shared pre-simulated YET, picks an engine per
// workload, and amortises engine construction, loss-table builds and
// dispatch threads across calls. The session owns exactly that shared
// state:
//
//   * a default ExecutionPolicy (per-request overridable),
//   * a cache of constructed engines, keyed by kind + configuration +
//     devices (every DeviceSpec field),
//   * a cache of built TableStores, keyed by portfolio identity +
//     precision, so a batch of requests against one portfolio builds
//     its layer-event table exactly once (DESIGN.md §4),
//   * a persistent compute thread pool handed to engines through
//     EngineContext (distinct from the run_batch dispatch pool — an
//     engine running *on* the dispatch pool must not barrier on it),
//   * a shard pool, the local RangeExecutor: every simulation —
//     monolithic, sharded or adaptive — runs through the one
//     trial-range loop (core/range_executor.hpp) on it, as a
//     distributed run does over the lease fleet,
//   * ExecutionPolicy::kAuto: every engine kind is priced by a
//     cost-only run of its own engine on the concrete workload (the
//     simulated timeline without the sweep), and the cheapest
//     feasible one runs — so a prediction is exactly the simulated
//     time the run then charges.
//
// Engine::run stays available as the thin one-shot compatibility
// layer; the session is a superset (metrics, extensions, batching).
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis_request.hpp"
#include "core/engine_factory.hpp"
#include "core/metrics/metrics_spec.hpp"
#include "core/shard.hpp"
#include "core/trial_math.hpp"
#include "parallel/thread_pool.hpp"

namespace ara {

/// One candidate layer structure entered into a race: a label plus the
/// portfolio variant to price. All entries race against the same YET
/// (common random numbers — every arm sees the same simulated years,
/// so arm differences are structural, not sampling noise).
struct RaceEntry {
  std::string label;
  const Portfolio* portfolio = nullptr;
};

/// Best-arm-identification contract for AnalysisSession::race():
/// which metric to optimize, in which direction, and the elimination
/// confidence / budget.
struct RaceSpec {
  /// The objective metric, evaluated on each arm's per-trial portfolio
  /// loss.
  metrics::StoppingTarget objective{};
  /// true = the best arm has the *lowest* objective (e.g. cheapest
  /// expected loss); false = the highest.
  bool minimize = true;
  /// Family-wise confidence of the elimination decisions. Split over
  /// the arms by union bound: each per-arm interval runs at
  /// 1 - (1 - confidence) / K.
  double confidence = 0.95;
  std::size_t min_trials = 1000;  ///< trials before the first elimination
  std::size_t max_trials = 0;     ///< per-arm budget; 0 = whole workload
  double wave_growth = 1.5;       ///< geometric wave schedule (shared)
  unsigned bootstrap_reps = 200;  ///< for var/tvar objectives
  std::uint64_t seed = 12345;     ///< bootstrap determinism
  /// Execution override for the arms' simulations (engine, shard size,
  /// ...); the session default applies when absent.
  std::optional<ExecutionPolicy> policy;
};

/// One arm's final standing.
struct RaceArm {
  std::string label;
  double estimate = 0.0;    ///< objective estimate at its last evaluation
  double half_width = 0.0;  ///< union-bound-adjusted CI half-width
  std::size_t trials_executed = 0;
  bool eliminated = false;
  /// The frontier at which the arm was eliminated (0 for survivors).
  std::size_t eliminated_at_trials = 0;
};

/// The race's outcome. `winner` indexes the input entries (and
/// `arms`); `separated` tells whether the field was narrowed to one
/// arm by confidence bounds, or the budget ran out first (the winner
/// is then the best point estimate among the survivors).
struct RaceResult {
  std::size_t winner = 0;
  bool separated = false;
  /// Total trials simulated across every arm — the quantity BAI
  /// pruning saves versus pricing all arms at full budget.
  std::size_t total_trials = 0;
  std::vector<RaceArm> arms;
};

/// Cost-model prediction for one engine kind on one workload.
struct EnginePrediction {
  EngineKind kind = EngineKind::kSequentialReference;
  /// Simulated seconds (paper hardware) of the kind's cost-only run:
  /// bitwise the simulated_seconds its real run charges.
  double seconds = 0.0;
  /// False when the simulated device refuses the run: inputs beyond
  /// its global memory, a launch shape the occupancy model rejects, or
  /// no GPU at all (gpu_count = 0).
  bool feasible = true;
  /// Why infeasible: "inputs exceed device memory", the occupancy
  /// limiter (e.g. "shared_memory_per_block"), or "gpu_count is zero".
  std::string note;
};

class AnalysisSession {
 public:
  /// `workers` sizes the run_batch dispatch pool; 0 = one worker per
  /// hardware thread.
  explicit AnalysisSession(ExecutionPolicy default_policy = {},
                           std::size_t workers = 0);

  const ExecutionPolicy& default_policy() const noexcept {
    return default_policy_;
  }

  /// Runs one analysis. Thread-safe.
  AnalysisResult run(const AnalysisRequest& request);

  /// Synchronous wrapper over run_batch_async (which see for the
  /// ordering contract): waits for every future, returns the results,
  /// and rethrows the first request failure (in request order) after
  /// the batch drains.
  std::vector<AnalysisResult> run_batch(std::span<const AnalysisRequest> requests);

  /// Asynchronous batch: enqueues every request on the dispatch pool
  /// and returns immediately with one future per request.
  ///
  /// Ordering contract (the single definition — run_batch inherits
  /// it): futures[i] corresponds to requests[i], always. Execution
  /// *completion* order is unspecified, but every result is identical
  /// to running its request alone (engines are deterministic), so the
  /// output is independent of the dispatch interleaving and of any
  /// other batch in flight. Each future carries its own result or
  /// exception; a failing request never surfaces through another
  /// request's future. Requests are copied; the portfolios/YETs they
  /// point at must stay alive until the futures resolve.
  std::vector<std::future<AnalysisResult>> run_batch_async(
      std::span<const AnalysisRequest> requests);

  /// Prices N candidate layer structures concurrently against one YET
  /// and prunes losers by successive elimination: at every shared wave
  /// barrier, an arm whose confidence lower bound (for minimization)
  /// sits above the best arm's upper bound is eliminated and its
  /// remaining trial budget reallocated to the survivors. Stops when
  /// one arm remains or the per-arm budget is exhausted. Deterministic
  /// for a given spec and YET; all arms share the wave schedule and the
  /// simulated years (common random numbers). Requires >= 2 entries,
  /// each with a portfolio of >= 1 layer. Thread-safe.
  RaceResult race(std::span<const RaceEntry> entries, const Yet& yet,
                  const RaceSpec& spec);

  /// The shard plan `policy` yields for this workload: an explicit
  /// shard size wins, else one is derived from the memory budget, else
  /// a single monolithic shard (core/shard.hpp).
  ShardPlan shard_plan(const Portfolio& portfolio, const Yet& yet,
                       const ExecutionPolicy& policy) const;

  /// Simulated-cost predictions of every engine kind for a workload
  /// under `policy` (launch shapes and devices come from the policy):
  /// each kind's engine, run with EngineContext::cost_only. This is
  /// the ranking kAuto selects from. A device refusal makes a kind
  /// infeasible; any other failure propagates (a zero launch shape,
  /// an unsatisfiable kForceWidth, mismatched catalogues).
  std::vector<EnginePrediction> predict(const Portfolio& portfolio,
                                        const Yet& yet,
                                        const ExecutionPolicy& policy) const;
  std::vector<EnginePrediction> predict(const Portfolio& portfolio,
                                        const Yet& yet) const {
    return predict(portfolio, yet, default_policy_);
  }

  /// The prediction of one engine kind under `policy` (its `engine`
  /// field is ignored): the kind's engine, run with
  /// EngineContext::cost_only. predict() is this, once per kind; a
  /// caller pricing each kind under its own policy calls it directly.
  EnginePrediction predict_kind(const Portfolio& portfolio, const Yet& yet,
                                const ExecutionPolicy& policy,
                                EngineKind kind) const;

  /// The prediction kAuto resolves to: the cheapest feasible one.
  /// Throws std::runtime_error if no kind is feasible (cannot happen
  /// with the CPU kinds present).
  EnginePrediction choose(const Portfolio& portfolio, const Yet& yet,
                          const ExecutionPolicy& policy) const;

  /// Convenience: just the kind of choose().
  EngineKind choose_engine(const Portfolio& portfolio, const Yet& yet,
                           const ExecutionPolicy& policy) const {
    return choose(portfolio, yet, policy).kind;
  }
  EngineKind choose_engine(const Portfolio& portfolio, const Yet& yet) const {
    return choose_engine(portfolio, yet, default_policy_);
  }

  /// Drops the cached TableStores of `portfolio` (call when the
  /// portfolio is about to be destroyed or mutated out from under the
  /// session). Cached tables are keyed by the portfolio's address —
  /// the same identity AnalysisRequest already relies on — so the
  /// caller must keep a portfolio alive while the session may serve
  /// requests against it, or invalidate it here first. Safe to call
  /// while requests against the portfolio are in flight: each run
  /// pins its tables for the duration, so only the cache entry is
  /// dropped (the next request rebuilds). The cache has no automatic
  /// eviction — a long-lived session streaming many short-lived
  /// portfolios must invalidate each as it retires it, or the dense
  /// layer-event tables (O(catalogue x layers) each) accumulate.
  void invalidate_tables(const Portfolio& portfolio);

  /// Number of portfolios with cached tables (diagnostics/tests).
  std::size_t cached_table_portfolios() const;

  /// Requests queued or executing on the dispatch pool plus trial
  /// shards queued or executing on the shard pool — the session's
  /// backlog as an admission controller should see it (ara_serve reads
  /// this instead of guessing from its own submit counts). Exact at
  /// the instant each pool is sampled; the two pools are sampled in
  /// sequence, so a request finishing between samples can be counted
  /// zero or twice transiently — callers treat it as a depth gauge,
  /// not an invariant.
  std::size_t pending_requests();

 private:
  /// Both-precision table bundle of one portfolio; entries built on
  /// first use per precision. shared_ptr so an in-flight run keeps its
  /// tables alive even if `invalidate_tables` drops the cache entry
  /// mid-run. The fingerprint is a cheap structural check against the
  /// address-reuse hazard of keying by `const Portfolio*`: a new
  /// portfolio allocated at a recycled address almost always differs
  /// in shape or ELT storage, turning a silent stale hit into a
  /// rebuild.
  struct PortfolioTables {
    std::shared_ptr<TableStore<double>> f64;
    std::shared_ptr<TableStore<float>> f32;
    std::size_t layer_count = 0;
    std::size_t elt_count = 0;
    const void* elts_data = nullptr;
  };

  /// Keeps a run's table stores alive for the duration of the
  /// simulation, independent of the cache entry's lifetime.
  struct TablePins {
    std::shared_ptr<TableStore<double>> f64;
    std::shared_ptr<TableStore<float>> f32;
  };

  /// The shard pool's RangeExecutor (core/range_executor.hpp): the
  /// session's simulations run through run_ranges() with it.
  class ShardExecutor;

  const Engine& engine_for(EngineKind kind, const ExecutionPolicy& policy);
  AnalysisResult run_resolved(const AnalysisRequest& request,
                              const ExecutionPolicy& policy);
  parallel::ThreadPool& batch_pool();
  parallel::ThreadPool& compute_pool();
  parallel::ThreadPool& shard_pool();

  /// The session's one shard loop, shared by simulations, the
  /// reinstatement pass and race(): runs `task(i)` once per range. A
  /// lone range runs on the calling thread (no pool is built) and its
  /// failure propagates as thrown; several run on the shard pool, and
  /// the first failure is rethrown naming its trial range
  /// (DeadlineExceeded passes through unwrapped).
  void run_on_shards(std::span<const TrialRange> ranges,
                     const std::function<void(std::size_t)>& task);

  /// The cached EngineContext for running `kind` (with `cfg`) against
  /// `portfolio`: the right-precision TableStore (built on first use)
  /// plus the persistent compute pool. `pins` must outlive the engine
  /// run that uses the returned context.
  EngineContext context_for(const Portfolio& portfolio, EngineKind kind,
                            const EngineConfig& cfg, TablePins& pins);

  // Three pools, strictly layered so no pool ever barriers on itself:
  // batch (request dispatch) -> shard (per-request trial shards) ->
  // compute (engine-internal parallel_for). A request running on a
  // batch worker may block on the shard pool, and a shard task may
  // block on the compute pool, but never the other way around.
  ExecutionPolicy default_policy_;
  std::size_t workers_;
  std::mutex pool_mutex_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< built on first run_batch
  std::mutex compute_pool_mutex_;
  std::unique_ptr<parallel::ThreadPool> compute_pool_;  ///< handed to engines
  std::mutex shard_pool_mutex_;
  std::unique_ptr<parallel::ThreadPool> shard_pool_;  ///< shard scheduler
  /// Everything make_engine consumes: a cached engine is reused only
  /// when all of it matches, every DeviceSpec field included.
  struct EngineKey {
    EngineKind kind = EngineKind::kSequentialReference;
    EngineConfig config;
    simgpu::DeviceSpec gpu_device;
    simgpu::DeviceSpec multi_gpu_device;
    std::size_t gpu_count = 0;

    friend bool operator==(const EngineKey&, const EngineKey&) = default;
  };
  std::mutex cache_mutex_;
  std::vector<std::pair<EngineKey, std::unique_ptr<Engine>>> engines_;
  mutable std::mutex tables_mutex_;
  std::unordered_map<const Portfolio*, PortfolioTables> tables_;
};

}  // namespace ara
