#include "core/session.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/failpoint.hpp"
#include "core/metrics/portfolio_rollup.hpp"
#include "core/range_executor.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partition.hpp"

namespace ara {

AnalysisSession::AnalysisSession(ExecutionPolicy default_policy,
                                 std::size_t workers)
    : default_policy_(std::move(default_policy)),
      workers_(workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency())) {}

parallel::ThreadPool& AnalysisSession::batch_pool() {
  // Built lazily: run()-only sessions (the CLI, most examples) never
  // pay for idle workers.
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  return *pool_;
}

parallel::ThreadPool& AnalysisSession::compute_pool() {
  // Separate from the batch dispatch pool: a request executing on a
  // dispatch worker barriers on this pool (parallel_for), and a
  // barrier on the pool the caller occupies would deadlock. Shared by
  // concurrent requests; engine results do not depend on partitioning.
  std::lock_guard<std::mutex> lock(compute_pool_mutex_);
  if (!compute_pool_) {
    compute_pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  }
  return *compute_pool_;
}

parallel::ThreadPool& AnalysisSession::shard_pool() {
  // Between the batch and compute pools in the layering: a request
  // (possibly on a batch worker) barriers on this pool for its trial
  // shards, and a shard task (on this pool) may barrier on the compute
  // pool — the multi-core engine's parallel_for. Sharing either
  // neighbour pool would let every worker block on work queued behind
  // itself.
  std::lock_guard<std::mutex> lock(shard_pool_mutex_);
  if (!shard_pool_) {
    shard_pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  }
  return *shard_pool_;
}

EngineContext AnalysisSession::context_for(const Portfolio& portfolio,
                                           EngineKind kind,
                                           const EngineConfig& cfg,
                                           TablePins& pins) {
  const bool wants_float = binds_float_tables(kind, cfg);

  const std::size_t layers = portfolio.layer_count();
  const std::size_t elts = portfolio.elt_count();
  const void* elts_data = static_cast<const void*>(portfolio.elts().data());

  const auto cache_lookup = [&]() -> std::shared_ptr<void> {
    std::lock_guard<std::mutex> lock(tables_mutex_);
    const auto it = tables_.find(&portfolio);
    if (it == tables_.end()) return nullptr;
    PortfolioTables& entry = it->second;
    if (entry.layer_count != layers || entry.elt_count != elts ||
        entry.elts_data != elts_data) {
      // Address reuse: a different portfolio now lives where the
      // cached one did. Drop the stale entry and rebuild below.
      tables_.erase(it);
      return nullptr;
    }
    return wants_float ? std::shared_ptr<void>(entry.f32)
                       : std::shared_ptr<void>(entry.f64);
  };

  std::shared_ptr<void> cached = cache_lookup();
  if (!cached) {
    // Build outside the lock: concurrent requests against *different*
    // portfolios must not queue behind one expensive dense-table
    // build. A same-portfolio race builds twice; first insert wins.
    std::shared_ptr<void> built;
    if (wants_float) {
      built = std::make_shared<TableStore<float>>(
          build_tables<float>(portfolio));
    } else {
      built = std::make_shared<TableStore<double>>(
          build_tables<double>(portfolio));
    }
    std::lock_guard<std::mutex> lock(tables_mutex_);
    PortfolioTables& entry = tables_[&portfolio];
    if (entry.layer_count != layers || entry.elt_count != elts ||
        entry.elts_data != elts_data) {
      entry = PortfolioTables{};
      entry.layer_count = layers;
      entry.elt_count = elts;
      entry.elts_data = elts_data;
    }
    if (wants_float) {
      if (!entry.f32) {
        entry.f32 = std::static_pointer_cast<TableStore<float>>(built);
      }
      cached = entry.f32;
    } else {
      if (!entry.f64) {
        entry.f64 = std::static_pointer_cast<TableStore<double>>(built);
      }
      cached = entry.f64;
    }
  }

  EngineContext ctx;
  if (wants_float) {
    pins.f32 = std::static_pointer_cast<TableStore<float>>(cached);
    ctx.tables_f32 = pins.f32.get();
  } else {
    pins.f64 = std::static_pointer_cast<TableStore<double>>(cached);
    ctx.tables_f64 = pins.f64.get();
  }
  // Only the multi-core engine reads the context pool; attaching it
  // unconditionally would spawn a workers_-sized pool that sequential
  // and GPU-kind sessions never use.
  if (kind == EngineKind::kMultiCore) ctx.pool = &compute_pool();
  return ctx;
}

void AnalysisSession::invalidate_tables(const Portfolio& portfolio) {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  tables_.erase(&portfolio);
}

std::size_t AnalysisSession::cached_table_portfolios() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  return tables_.size();
}

std::size_t AnalysisSession::pending_requests() {
  // Dispatch-queue depth (batch requests queued or executing) plus
  // shard-queue depth (trial shards of in-flight sharded runs). An
  // admission controller in front of the session reads this instead of
  // guessing from its own submit counts — a request it never submitted
  // (another front-end, a direct run_batch_async caller) still shows
  // up here. Pools are built lazily; a pool that never existed has no
  // queue to count.
  std::size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (pool_) pending += pool_->pending();
  }
  {
    std::lock_guard<std::mutex> lock(shard_pool_mutex_);
    if (shard_pool_) pending += shard_pool_->pending();
  }
  return pending;
}

std::vector<EnginePrediction> AnalysisSession::predict(
    const Portfolio& portfolio, const Yet& yet,
    const ExecutionPolicy& policy) const {
  std::vector<EnginePrediction> out;
  for (const EngineKind kind : all_engine_kinds()) {
    out.push_back(predict_kind(portfolio, yet, policy, kind));
  }
  return out;
}

EnginePrediction AnalysisSession::predict_kind(const Portfolio& portfolio,
                                               const Yet& yet,
                                               const ExecutionPolicy& policy,
                                               EngineKind kind) const {
  // The kind's own engine prices it: a cost-only run charges the
  // simulated timeline without executing the sweep, exactly as the
  // real run will (the replay the shard merge already relies on), so a
  // prediction is the charged time by construction. A kind is
  // infeasible only when its simulated device refuses the work; every
  // other failure propagates.
  EnginePrediction p;
  p.kind = kind;
  p.feasible = false;
  if (kind == EngineKind::kMultiGpu && policy.gpu_count == 0) {
    p.note = "gpu_count is zero";  // no device to run on
    return p;
  }
  ExecutionPolicy concrete = policy;
  concrete.engine = kind;
  EngineContext cost_only;
  cost_only.cost_only = true;
  try {
    p.seconds =
        make_engine(concrete)->run(portfolio, yet, cost_only).simulated_seconds;
    p.feasible = true;
  } catch (const DeviceMemoryExhausted&) {
    p.note = "inputs exceed device memory";
  } catch (const InfeasibleLaunch& e) {
    p.note = e.limiter();
  }
  return p;
}

EnginePrediction AnalysisSession::choose(const Portfolio& portfolio,
                                         const Yet& yet,
                                         const ExecutionPolicy& policy) const {
  const std::vector<EnginePrediction> predictions =
      predict(portfolio, yet, policy);
  const EnginePrediction* best = nullptr;
  for (const EnginePrediction& p : predictions) {
    if (!p.feasible) continue;
    if (!best || p.seconds < best->seconds) best = &p;
  }
  if (!best) {
    throw std::runtime_error(
        "AnalysisSession::choose: no feasible engine for workload");
  }
  return *best;
}

ShardPlan AnalysisSession::shard_plan(const Portfolio& portfolio,
                                      const Yet& yet,
                                      const ExecutionPolicy& policy) const {
  if (!policy.sharded()) {
    return ShardPlan{yet.trial_count(), yet.trial_count()};
  }
  return plan_shards(yet.trial_count(), policy.shard_trials,
                     policy.memory_budget_bytes,
                     shard_bytes_per_trial(portfolio.layer_count(),
                                           yet.mean_events_per_trial()));
}

void AnalysisSession::run_on_shards(
    std::span<const TrialRange> ranges,
    const std::function<void(std::size_t)>& task) {
  // A lone range is the monolithic run: no pool, no thread hop, and
  // its failure propagates exactly as the engine threw it.
  if (ranges.size() == 1) {
    task(0);
    return;
  }
  // One task per range, pulled dynamically so ranges pipeline across
  // the shard pool's workers.
  parallel::parallel_for(
      shard_pool(), ranges.size(),
      [&](parallel::Range shards) {
        for (std::size_t i = shards.begin; i < shards.end; ++i) {
          try {
            ARA_FAILPOINT("shard.worker_throw", {
              (void)ara_fp;
              throw std::runtime_error("injected shard worker fault");
            });
            task(i);
          } catch (const DeadlineExceeded&) {
            // Typed: queue-level callers (the serve scheduler) turn it
            // into an explicit shed — wrapping would erase that.
            throw;
          } catch (const std::exception& e) {
            // Name the shard: a batch caller's future should say which
            // trial range failed, not just that "a worker" did.
            throw std::runtime_error(
                "shard [" + std::to_string(ranges[i].begin) + ", " +
                std::to_string(ranges[i].end) + ") failed: " + e.what());
          }
        }
      },
      parallel::Schedule::kDynamic, /*chunk=*/1);
}

// The session's RangeExecutor: each wave runs on the shard pool and
// every partial goes to run_ranges() as soon as it completes; the ranges
// an accept returns (an adaptive barrier) run as the next wave.
class AnalysisSession::ShardExecutor final : public RangeExecutor {
 public:
  ShardExecutor(AnalysisSession& session, const Engine& engine,
                const Portfolio& portfolio, const Yet& yet, EngineKind kind,
                const EngineConfig& cfg)
      : session_(session),
        engine_(engine),
        portfolio_(portfolio),
        yet_(yet),
        kind_(kind),
        cfg_(cfg) {}

  void run(std::vector<TrialRange> ranges, const Accept& accept) override {
    // The context is range-invariant (tables, compute pool); bind it
    // once and pin the tables for the whole run instead of paying the
    // cache lock per range.
    TablePins pins;
    const EngineContext base =
        session_.context_for(portfolio_, kind_, cfg_, pins);
    while (!ranges.empty()) {
      std::mutex mutex;
      std::vector<TrialRange> next;
      session_.run_on_shards(ranges, [&](std::size_t i) {
        EngineContext ctx = base;
        ctx.trials = ranges[i];
        const std::vector<TrialRange> more =
            accept(engine_.run(portfolio_, yet_, ctx));
        std::lock_guard<std::mutex> lock(mutex);
        next.insert(next.end(), more.begin(), more.end());
      });
      ranges = std::move(next);
    }
  }

 private:
  AnalysisSession& session_;
  const Engine& engine_;
  const Portfolio& portfolio_;
  const Yet& yet_;
  EngineKind kind_;
  EngineConfig cfg_;
};

const Engine& AnalysisSession::engine_for(EngineKind kind,
                                          const ExecutionPolicy& policy) {
  const EngineKey key{kind, resolved_config(policy, kind), policy.gpu_device,
                      policy.multi_gpu_device, policy.gpu_count};
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const auto& [cached, engine] : engines_) {
    if (cached == key) return *engine;
  }
  ExecutionPolicy concrete = policy;
  concrete.engine = kind;
  concrete.config = key.config;
  engines_.emplace_back(key, make_engine(concrete));
  return *engines_.back().second;
}

AnalysisResult AnalysisSession::run(const AnalysisRequest& request) {
  // Deadline first, before any validation or table work: an expired
  // request must be shed with zero compute spent on it. For batch
  // submissions this runs when the dispatch pool picks the request up,
  // so a deadline that passes while the request queues surfaces as
  // DeadlineExceeded through its own future and the engines never see
  // the work.
  if (request.deadline &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    throw DeadlineExceeded("AnalysisSession: deadline expired before "
                           "dispatch for request \"" +
                           request.label + "\"");
  }
  if (request.portfolio == nullptr || request.yet == nullptr) {
    throw std::invalid_argument(
        "AnalysisSession::run: request needs a portfolio and a yet");
  }
  if (!request.core_simulation && !request.secondary_uncertainty &&
      request.reinstatement_terms.empty()) {
    throw std::invalid_argument(
        "AnalysisSession::run: request disables the core simulation but "
        "asks for no extension — nothing to run");
  }
  return run_resolved(request,
                      request.policy ? *request.policy : default_policy_);
}

AnalysisResult AnalysisSession::run_resolved(const AnalysisRequest& request,
                                             const ExecutionPolicy& policy) {
  const Portfolio& portfolio = *request.portfolio;
  const Yet& yet = *request.yet;
  const ShardPlan plan = shard_plan(portfolio, yet, policy);

  AnalysisResult result;
  if (request.core_simulation || request.secondary_uncertainty) {
    // The secondary-uncertainty extension is itself an Engine with a
    // single implementation; it replaces the policy's engine choice. It
    // still draws the session's cached double-precision tables, and
    // shards like the core engines (its damage draws are keyed by
    // global trial index, so shard boundaries do not move them).
    std::optional<ext::SecondaryUncertaintyEngine> su_engine;
    std::optional<EnginePrediction> chosen;
    EngineKind kind = EngineKind::kSequentialFused;
    if (request.secondary_uncertainty) {
      su_engine.emplace(*request.secondary_uncertainty);
    } else if (policy.engine) {
      kind = *policy.engine;
    } else {
      chosen = choose(portfolio, yet, policy);
      kind = chosen->kind;
    }
    const Engine& engine = su_engine ? *su_engine : engine_for(kind, policy);
    ShardExecutor executor(*this, engine, portfolio, yet, kind,
                           resolved_config(policy, kind));
    result = run_ranges(request, engine, plan, executor);
    if (!su_engine) result.engine = kind;
    if (chosen) {
      result.auto_selected = true;
      result.predicted_seconds = chosen->seconds;
    }
  } else {
    validate_request(request);
    result.label = request.label;
  }

  if (!request.reinstatement_terms.empty()) {
    const ext::ReinstatementEngine engine(portfolio,
                                          request.reinstatement_terms);
    // The reinstatement pass draws the session's cached
    // double-precision tables like the core engines do, and shards the
    // same way (each trial's outcome is independent, so partial blocks
    // reassemble bitwise).
    TablePins pins;
    const TableStore<double>* tables =
        context_for(portfolio, EngineKind::kSequentialFused,
                    resolved_config(policy, EngineKind::kSequentialFused),
                    pins)
            .tables_f64;
    const std::vector<TrialRange> ranges = plan.ranges();
    if (ranges.size() == 1) {
      result.reinstatements = engine.run(yet, tables);
    } else {
      ext::ReinstatementResult full(portfolio.layer_count(),
                                    yet.trial_count());
      run_on_shards(ranges, [&](std::size_t i) {
        // Disjoint trial blocks: concurrent merges write
        // non-overlapping rows.
        full.merge_trial_block(engine.run(yet, tables, ranges[i]),
                               ranges[i].begin);
      });
      result.reinstatements = std::move(full);
    }
  }
  return result;
}

RaceResult AnalysisSession::race(std::span<const RaceEntry> entries,
                                 const Yet& yet, const RaceSpec& spec) {
  if (entries.size() < 2) {
    throw std::invalid_argument(
        "AnalysisSession::race: need at least two candidates");
  }
  for (const RaceEntry& entry : entries) {
    if (entry.portfolio == nullptr || entry.portfolio->layer_count() == 0) {
      throw std::invalid_argument(
          "AnalysisSession::race: every entry needs a portfolio with at "
          "least one layer");
    }
  }
  // Reuse the StoppingSpec validation and wave schedule for the shared
  // knobs (the race has no tolerance — elimination is pairwise — so a
  // placeholder 1.0 satisfies the range check).
  metrics::StoppingSpec shape;
  shape.targets = {spec.objective};
  shape.relative_tolerance = 1.0;
  shape.confidence = spec.confidence;
  shape.min_trials = spec.min_trials;
  shape.max_trials = spec.max_trials;
  shape.wave_growth = spec.wave_growth;
  shape.bootstrap_reps = spec.bootstrap_reps;
  shape.seed = spec.seed;
  shape.validate();

  const std::size_t total = yet.trial_count();
  if (total == 0) {
    throw std::invalid_argument("AnalysisSession::race: workload has no trials");
  }
  const std::size_t budget = shape.budget(total);
  const ExecutionPolicy& pol = spec.policy ? *spec.policy : default_policy_;
  const std::size_t wave =
      metrics::adaptive_wave_trials(shape, total, pol.shard_trials);

  // Family-wise confidence by union bound: each arm's interval runs at
  // 1 - (1 - c) / K, so the probability any of the K intervals misses
  // is at most 1 - c.
  const double per_arm_confidence =
      1.0 - (1.0 - spec.confidence) / static_cast<double>(entries.size());
  const double z = metrics::z_for_confidence(per_arm_confidence);

  struct ArmState {
    const Portfolio* portfolio = nullptr;
    const Engine* engine = nullptr;
    TablePins pins;
    EngineContext base_ctx;
    std::vector<double> losses;
    metrics::TargetStatus status;
    std::size_t executed = 0;
    bool active = true;
    std::size_t eliminated_at = 0;
  };
  std::vector<ArmState> arms(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    ArmState& arm = arms[k];
    arm.portfolio = entries[k].portfolio;
    const EngineKind kind =
        pol.engine ? *pol.engine : choose_engine(*arm.portfolio, yet, pol);
    arm.engine = &engine_for(kind, pol);
    arm.base_ctx = context_for(*arm.portfolio, kind,
                               resolved_config(pol, kind), arm.pins);
  }

  std::size_t frontier = metrics::next_frontier(shape, total, wave, 0);
  bool separated = false;
  for (;;) {
    // Extend every surviving arm to the shared frontier (common random
    // numbers: all arms price the same simulated years), flattened so
    // shards of different arms interleave freely on the pool.
    std::vector<TrialRange> ranges;
    std::vector<std::size_t> owners;
    for (std::size_t k = 0; k < arms.size(); ++k) {
      if (!arms[k].active) continue;
      arms[k].losses.resize(frontier);
      for (const TrialRange& r :
           shard_ranges(arms[k].executed, frontier, wave)) {
        ranges.push_back(r);
        owners.push_back(k);
      }
    }
    run_on_shards(ranges, [&](std::size_t i) {
      ArmState& arm = arms[owners[i]];
      EngineContext ctx = arm.base_ctx;
      ctx.trials = ranges[i];
      const SimulationResult partial =
          arm.engine->run(*arm.portfolio, yet, ctx);
      const std::vector<double> losses =
          metrics::portfolio_trial_losses(partial.ylt);
      // Disjoint slices per range: lock-free writes.
      std::copy(losses.begin(), losses.end(),
                arm.losses.begin() + partial.trial_begin);
    });

    std::size_t active = 0;
    for (std::size_t k = 0; k < arms.size(); ++k) {
      ArmState& arm = arms[k];
      if (!arm.active) continue;
      arm.executed = frontier;
      // Per-arm bootstrap substream: decorrelated across arms so a
      // re-ordering of the entries never changes another arm's SE.
      arm.status = metrics::evaluate_target(
          spec.objective, {arm.losses.data(), frontier}, z,
          /*relative_tolerance=*/1.0, spec.bootstrap_reps,
          spec.seed + (k + 1) * 0x9e3779b97f4a7c15ULL);
      ++active;
    }

    // Successive elimination. For minimization: the best possible arm
    // is the one with the smallest upper bound; any arm whose *lower*
    // bound clears it cannot be the winner at this confidence. The arm
    // attaining the best bound can never eliminate itself (its lower
    // bound is below its own upper bound), so one arm always survives.
    // A one-trial frontier has no spread estimate, so elimination
    // waits for n >= 2.
    if (frontier >= 2) {
      double best_bound = spec.minimize
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
      for (const ArmState& arm : arms) {
        if (!arm.active) continue;
        if (spec.minimize) {
          best_bound =
              std::min(best_bound, arm.status.estimate + arm.status.half_width);
        } else {
          best_bound =
              std::max(best_bound, arm.status.estimate - arm.status.half_width);
        }
      }
      for (ArmState& arm : arms) {
        if (!arm.active) continue;
        const bool out =
            spec.minimize
                ? arm.status.estimate - arm.status.half_width > best_bound
                : arm.status.estimate + arm.status.half_width < best_bound;
        if (out) {
          arm.active = false;
          arm.eliminated_at = frontier;
          --active;
        }
      }
    }

    if (active <= 1) {
      separated = true;
      break;
    }
    if (frontier >= budget) break;
    frontier = metrics::next_frontier(shape, total, wave, frontier);
  }

  RaceResult result;
  result.separated = separated;
  result.arms.reserve(arms.size());
  const ArmState* best = nullptr;
  std::size_t best_index = 0;
  for (std::size_t k = 0; k < arms.size(); ++k) {
    const ArmState& arm = arms[k];
    RaceArm out;
    out.label = entries[k].label;
    out.estimate = arm.status.estimate;
    out.half_width = arm.status.half_width;
    out.trials_executed = arm.executed;
    out.eliminated = !arm.active;
    out.eliminated_at_trials = arm.eliminated_at;
    result.arms.push_back(std::move(out));
    result.total_trials += arm.executed;
    if (!arm.active) continue;
    const bool better =
        best == nullptr ||
        (spec.minimize ? arm.status.estimate < best->status.estimate
                       : arm.status.estimate > best->status.estimate);
    if (better) {
      best = &arm;
      best_index = k;
    }
  }
  result.winner = best_index;
  return result;
}

std::vector<std::future<AnalysisResult>> AnalysisSession::run_batch_async(
    std::span<const AnalysisRequest> requests) {
  std::vector<std::future<AnalysisResult>> futures;
  futures.reserve(requests.size());
  parallel::ThreadPool& pool = batch_pool();
  for (const AnalysisRequest& request : requests) {
    // Each request owns a promise: a failure resolves only its own
    // future, so concurrent batches on one session never observe each
    // other's exceptions (wait_idle's pool-wide error capture would).
    auto task = std::make_shared<std::packaged_task<AnalysisResult()>>(
        [this, request] { return run(request); });
    futures.push_back(task->get_future());
    pool.submit([task] { (*task)(); });
  }
  return futures;
}

std::vector<AnalysisResult> AnalysisSession::run_batch(
    std::span<const AnalysisRequest> requests) {
  std::vector<std::future<AnalysisResult>> futures = run_batch_async(requests);
  std::vector<AnalysisResult> results;
  results.reserve(futures.size());
  std::exception_ptr first_error;
  for (std::future<AnalysisResult>& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.emplace_back();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace ara
