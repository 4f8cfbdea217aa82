#include "core/range_executor.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/metrics/portfolio_rollup.hpp"
#include "core/metrics/streaming.hpp"
#include "io/yet_chunk.hpp"
#include "perf/stopwatch.hpp"

namespace ara {

namespace {

// Serialises blocks into the spill writer (YltChunkWriter seeks, so
// concurrent appends must not interleave).
class SpillSink : public YltBlockSink {
 public:
  explicit SpillSink(io::YltChunkWriter& writer) : writer_(writer) {}
  void consume(const Ylt& block, std::size_t trial_begin) override {
    std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(block, trial_begin);
  }

 private:
  std::mutex mutex_;
  io::YltChunkWriter& writer_;
};

// Forwards each block to every attached sink (metric reducer + spill
// writer); the attached sinks serialise themselves.
class FanoutSink : public YltBlockSink {
 public:
  void attach(YltBlockSink* sink) { sinks_.push_back(sink); }
  void consume(const Ylt& block, std::size_t trial_begin) override {
    for (YltBlockSink* sink : sinks_) sink->consume(block, trial_begin);
  }

 private:
  std::vector<YltBlockSink*> sinks_;
};

// A failed spill must not leave its file behind: the chunk writer
// pre-extends the file to full size under a valid header before any
// block lands, so a leftover from an aborted run would reload as
// silently-zero losses. Armed only once a writer has truncated the
// path (a failure before that must not delete a pre-existing file
// this run never touched); disarmed after a successful close.
struct SpillCleanup {
  const char* path = nullptr;
  ~SpillCleanup() {
    if (path != nullptr) std::remove(path);
  }
};

std::vector<std::string> layer_labels(const Portfolio& portfolio) {
  std::vector<std::string> labels;
  labels.reserve(portfolio.layer_count());
  for (const Layer& layer : portfolio.layers()) labels.push_back(layer.name);
  return labels;
}

}  // namespace

void validate_request(const AnalysisRequest& request) {
  request.metrics.validate();
  const bool spill = request.ylt_retention == YltRetention::kSpillToFile;
  if (spill && request.ylt_path.empty()) {
    throw std::invalid_argument(
        "AnalysisRequest: YltRetention::kSpillToFile requires ylt_path");
  }
  const bool simulates =
      request.core_simulation || request.secondary_uncertainty.has_value();
  if (spill && !simulates) {
    // An extension-only run produces no YLT; silently writing nothing
    // would surface as a confusing open-failure at the caller's reload.
    throw std::invalid_argument(
        "AnalysisRequest: YltRetention::kSpillToFile needs the core "
        "simulation (or secondary uncertainty) — an extension-only "
        "request produces no YLT to spill");
  }
  if (!request.stopping) return;
  request.stopping->validate();
  if (!simulates) {
    throw std::invalid_argument(
        "AnalysisRequest: adaptive stopping needs the core simulation "
        "(or secondary uncertainty) — an extension-only request has no "
        "trial loop to stop");
  }
  if (spill) {
    // The chunk writer pre-extends the file to the full fixed trial
    // count under a valid header; an early stop would leave the unrun
    // suffix reloading as silently-zero losses.
    throw std::invalid_argument(
        "AnalysisRequest: adaptive stopping cannot spill the YLT — the "
        "spill format is sized for the fixed trial count");
  }
  if (!request.reinstatement_terms.empty()) {
    throw std::invalid_argument(
        "AnalysisRequest: adaptive stopping does not compose with "
        "reinstatement pricing (the extension prices the fixed workload)");
  }
  if (request.portfolio->layer_count() == 0) {
    throw std::invalid_argument(
        "AnalysisRequest: adaptive stopping needs at least one layer — "
        "the stopping rule watches the per-trial portfolio loss");
  }
}

AnalysisResult run_ranges(const AnalysisRequest& request,
                          const Engine& engine, const ShardPlan& plan,
                          RangeExecutor& executor) {
  validate_request(request);
  const Portfolio& portfolio = *request.portfolio;
  const Yet& yet = *request.yet;
  const std::size_t layers = portfolio.layer_count();
  const std::size_t total = yet.trial_count();
  const bool keep = request.ylt_retention == YltRetention::kKeep;

  // Fixed runs issue the whole plan as one wave; adaptive runs issue
  // the oracle's frontier and extend it at each wave barrier.
  std::optional<metrics::AdaptiveController> controller;
  std::size_t wave = 0;
  std::vector<TrialRange> ranges;
  if (request.stopping) {
    wave = metrics::adaptive_wave_trials(*request.stopping, total,
                                         plan.shard_trials);
    controller.emplace(*request.stopping, total, wave);
    ranges = shard_ranges(0, controller->frontier(), wave);
  } else {
    ranges = plan.ranges();
  }

  // A run that does not keep its YLT streams every block straight into
  // the metric reducer and/or the spill writer and drops it — the
  // layers x trials table is never allocated (DESIGN.md §6). Kept runs
  // compute metrics from the assembled table instead; either way the
  // numbers agree bitwise. The reducer is sized for the whole budget:
  // its reservoirs are exact for any stopped prefix (streaming.hpp), so
  // finish(executed) below finalizes whatever the oracle settled on.
  const bool metrics_feasible =
      request.metrics.any() && layers > 0 && total > 0;
  SpillCleanup spill_cleanup;
  std::optional<metrics::StreamingMetricsReducer> reducer;
  std::unique_ptr<io::YltChunkWriter> spill_writer;
  std::optional<SpillSink> spill_sink;
  FanoutSink fanout;
  if (!keep && metrics_feasible) {
    reducer.emplace(layer_labels(portfolio),
                    controller ? controller->max_trials() : total,
                    request.metrics);
    fanout.attach(&*reducer);
  }
  if (request.ylt_retention == YltRetention::kSpillToFile) {
    spill_writer = std::make_unique<io::YltChunkWriter>(request.ylt_path,
                                                        layers, total);
    spill_cleanup.path = request.ylt_path.c_str();
    spill_sink.emplace(*spill_writer);
    fanout.attach(&*spill_sink);
  }
  YltBlockSink* const sink = keep ? nullptr : &fanout;

  // A one-range fixed run IS the monolithic run: its block is adopted
  // whole, so the merge copy and the replay would buy nothing. Other
  // fixed runs stream each block into the merger as it completes; an
  // adaptive run's merged trial count is unknown until the oracle
  // stops, so its kept blocks wait for the final frontier.
  const bool adopt =
      !controller && ranges.size() == 1 && executor.partials_complete();
  std::optional<ShardMerger> merger;
  if (!controller && !adopt) merger.emplace(layers, total, sink, keep);
  SimulationResult adopted;
  std::mutex mutex;  // guards the controller and `kept`
  std::vector<SimulationResult> kept;
  std::atomic<std::size_t> accepted{0};

  const RangeExecutor::Accept accept =
      [&](SimulationResult&& partial) -> std::vector<TrialRange> {
    ++accepted;
    if (merger) {
      merger->add(partial);
      return {};
    }
    if (!controller) {
      if (sink != nullptr) sink->consume(partial.ylt, partial.trial_begin);
      adopted = std::move(partial);
      return {};
    }
    // The oracle's sample: per-trial portfolio loss, layers outer — the
    // association the streaming reducer uses, so the oracle sees
    // bitwise the sample a monolithic portfolio reduction would.
    const std::vector<double> losses =
        metrics::portfolio_trial_losses(partial.ylt);
    if (sink != nullptr) sink->consume(partial.ylt, partial.trial_begin);
    std::lock_guard<std::mutex> lock(mutex);
    controller->observe(partial.trial_begin, losses);
    if (keep) kept.push_back(std::move(partial));
    if (!controller->at_barrier()) return {};
    // At the barrier the oracle either stops the run or extends the
    // frontier by whole waves.
    const std::size_t from = controller->frontier();
    controller->advance();
    return shard_ranges(from, controller->frontier(), wave);
  };

  perf::Stopwatch wall;
  executor.run(std::move(ranges), accept);
  const std::size_t executed = controller ? controller->frontier() : total;

  SimulationResult simulation;
  if (adopt) {
    simulation = std::move(adopted);
  } else {
    if (merger) {
      simulation = merger->finish();
    } else if (keep) {
      ShardMerger prefix(layers, executed);
      for (const SimulationResult& partial : kept) prefix.add(partial);
      kept.clear();
      simulation = prefix.finish();
    }
    const double elapsed = wall.seconds();
    // Reconstitute the monolithic accounting of what ran, bitwise: op
    // counts and the simulated timeline are pure functions of the
    // executed range, so a cost-only replay over it reports exactly
    // what one monolithic run would have (DESIGN.md §5).
    EngineContext cost_ctx;
    cost_ctx.cost_only = true;
    cost_ctx.trials = TrialRange{0, executed};
    const SimulationResult mono = engine.run(portfolio, yet, cost_ctx);
    simulation.ops = mono.ops;
    simulation.simulated_phases = mono.simulated_phases;
    simulation.simulated_seconds = mono.simulated_seconds;
    simulation.engine_name = mono.engine_name;
    simulation.devices = mono.devices;
    simulation.simd_isa = mono.simd_isa;
    simulation.wall_seconds = elapsed;
  }

  AnalysisResult result;
  result.label = request.label;
  result.simulation = std::move(simulation);
  result.shard_count = accepted;
  result.trials_executed = executed;
  if (controller) {
    result.stopped_early = executed < total;
    result.half_widths = controller->statuses();
  }
  if (metrics_feasible) {
    result.metrics = keep ? metrics::compute_metrics(result.simulation.ylt,
                                                     layer_labels(portfolio),
                                                     request.metrics)
                          : reducer->finish(executed);
  }
  if (spill_writer) {
    spill_writer->close();
    spill_cleanup.path = nullptr;  // complete and coverage-checked
    result.ylt_path = request.ylt_path;
  }
  // Metric-only and spilled runs hand back an empty table; unless the
  // run was one block, it was never allocated in the first place.
  if (!keep) result.simulation.ylt = Ylt();
  return result;
}

}  // namespace ara
