#include "core/cpu_engines.hpp"

#include <algorithm>
#include <vector>

#include "core/simd/bound_portfolio.hpp"
#include "core/simd/kernels.hpp"
#include "core/trial_math.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/cpu_cost_model.hpp"
#include "perf/machine_profile.hpp"
#include "perf/stopwatch.hpp"

namespace ara {

namespace {

// Runs the trial-major sweep for global trials [range.begin,
// range.end), writing each layer's slice of the YLT at local row
// (trial - out_base) — out_base is the global index of the YLT's first
// row (0 for a full run, the shard begin for a partial one). Different
// ranges touch disjoint YLT elements, and within one range every
// layer's writes are contiguous — workers never share a cache line
// except at range boundaries. The per-trial work is the dispatched
// SoA kernel (core/simd/) over the trial's covered occurrences: scalar
// in the default bitwise-reference mode, vectorized under
// SimdPolicy::kAuto/kForceWidth.
void sweep_trials(const Yet& yet, const TableStore<double>& tables,
                  const simd::BoundPortfolio<double>& bp,
                  const simd::SweepKernel<double>& kernel,
                  parallel::Range range, std::size_t out_base, Ylt& ylt) {
  simd::PortfolioTrialState<double> state(bp);
  std::vector<EventOccurrence> scratch;
  for (std::size_t b = range.begin; b < range.end; ++b) {
    const auto t = static_cast<TrialId>(b);
    const auto row = static_cast<TrialId>(b - out_base);
    kernel.sweep(bp, covered_occurrences(tables, yet.trial(t), scratch),
                 state);
    for (std::size_t a = 0; a < bp.layers; ++a) {
      ylt.annual_loss(a, row) = state.annual[a];
      ylt.max_occurrence_loss(a, row) = state.max_occurrence[a];
    }
  }
}

}  // namespace

SimulationResult FusedSequentialEngine::run(const Portfolio& portfolio,
                                            const Yet& yet,
                                            const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);
  // The fused formulation keeps its scratch in registers; only the
  // YLT write remains.
  result.ops.global_updates = result.ops.occurrence_ops ? 1 : 0;

  // Kernel selection happens even for cost-only replays: the choice is
  // a pure function of config + host, it records the active ISA, and a
  // kForceWidth the host can't satisfy should fail loudly either way.
  const simd::SweepKernel<double> kernel =
      simd::select_kernel<double>(config_.simd, config_.simd_width);
  result.simd_isa = simd::isa_name(kernel.isa);

  perf::Stopwatch wall;
  if (!context.cost_only) {
    TableStore<double> local;
    const TableStore<double>* tables =
        select_tables(context.tables_f64, local, portfolio);
    const simd::BoundPortfolio<double> bp =
        simd::bind_portfolio(portfolio, *tables);
    result.ylt = Ylt(portfolio.layer_count(), range.size());
    sweep_trials(yet, *tables, bp, kernel, {range.begin, range.end},
                 range.begin, result.ylt);
    result.wall_seconds = wall.seconds();
  }

  const perf::CpuCostModel model(perf::intel_i7_2600());
  result.simulated_phases = model.estimate(result.ops, /*cores=*/1);
  result.simulated_seconds = result.simulated_phases.total();
  return result;
}

MultiCoreEngine::~MultiCoreEngine() = default;

parallel::ThreadPool& MultiCoreEngine::cached_pool() const {
  const unsigned cores = std::max(1u, config_.cores);
  const unsigned oversub = std::max(1u, config_.threads_per_core);
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!pool_) {
    pool_ = std::make_unique<parallel::ThreadPool>(
        static_cast<std::size_t>(cores) * oversub);
  }
  return *pool_;
}

SimulationResult MultiCoreEngine::run(const Portfolio& portfolio,
                                      const Yet& yet,
                                      const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);
  result.ops.global_updates =
      result.ops.occurrence_ops * kScratchTouchesPerEvent;

  const unsigned cores = std::max(1u, config_.cores);
  const unsigned oversub = std::max(1u, config_.threads_per_core);

  const simd::SweepKernel<double> kernel =
      simd::select_kernel<double>(config_.simd, config_.simd_width);
  result.simd_isa = simd::isa_name(kernel.isa);

  perf::Stopwatch wall;
  if (!context.cost_only) {
    TableStore<double> local;
    const TableStore<double>* tables =
        select_tables(context.tables_f64, local, portfolio);
    const simd::BoundPortfolio<double> bp =
        simd::bind_portfolio(portfolio, *tables);
    result.ylt = Ylt(portfolio.layer_count(), range.size());

    // One software thread per trial batch, as in the paper's
    // oversubscribed OpenMP runs; a single trial-major wave replaces
    // the old per-layer dispatch. (On this container the workers
    // time-share one physical core; the simulated time below models
    // the paper's machine.) Each range worker owns its trial state;
    // the shared binding is read-only.
    parallel::ThreadPool& pool =
        context.pool != nullptr ? *context.pool : cached_pool();
    parallel::parallel_for(pool, range.size(), [&](parallel::Range r) {
      sweep_trials(yet, *tables, bp, kernel,
                   {range.begin + r.begin, range.begin + r.end}, range.begin,
                   result.ylt);
    });
    result.wall_seconds = wall.seconds();
  }

  const perf::CpuCostModel model(perf::intel_i7_2600());
  result.simulated_phases = model.estimate(result.ops, cores, oversub);
  result.simulated_seconds = result.simulated_phases.total();
  return result;
}

}  // namespace ara
