// AnalysisRequest: the unit of work the AnalysisSession façade
// consumes — *what* to analyse (portfolio + YET), *which* derived
// outputs to compute (risk metrics), and which engine extensions to
// run alongside (reinstatements, secondary uncertainty). *How* to
// execute is the ExecutionPolicy (engine_factory.hpp), either the
// session's default or a per-request override. AnalysisResult is what
// one request produces, locally or through a lease fleet.
//
// Requests hold their inputs by pointer: a batch of many portfolios
// priced against one shared YET is many requests pointing at the same
// Yet, with zero copies — the batching shape the one-shot Engine::run
// could not express. The caller keeps both alive for the duration of
// the run.
#pragma once

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_factory.hpp"
#include "core/layer.hpp"
#include "core/metrics/metrics_spec.hpp"
#include "core/metrics/stopping.hpp"
#include "core/yet.hpp"
#include "extensions/reinstatements.hpp"
#include "extensions/secondary_uncertainty.hpp"

namespace ara {

/// Declarative metric query plan (core/metrics/metrics_spec.hpp):
/// caller-chosen quantile and return-period sets per scope.
using MetricsSpec = metrics::MetricsSpec;

/// What happens to the simulated YLT itself. Metrics are computed
/// either way; the policy decides whether the table outlives the run.
enum class YltRetention {
  /// Materialize the full YLT in AnalysisResult::simulation (today's
  /// behavior, and the default).
  kKeep,
  /// Metric-only run: the YLT is never materialized. A sharded run
  /// streams each shard block through the metric reducers and drops
  /// it, holding O(shard + reservoir) memory instead of
  /// O(layers x trials); a monolithic run computes metrics and frees
  /// the table before returning.
  kDiscard,
  /// Stream the YLT to `AnalysisRequest::ylt_path` through
  /// io::YltChunkWriter (byte-identical to io::save_ylt of the
  /// monolithic table) and return only the path; in-memory behavior
  /// is as kDiscard.
  kSpillToFile,
};

/// Thrown (through the request's own future, for batch submissions)
/// when a request's deadline passed before its simulation started.
/// Distinct from other failures so queue-level callers — the
/// ara_serve scheduler above all — can turn it into an explicit
/// "shed, retry later" answer instead of a generic error.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// One analysis to run. Only `portfolio` and `yet` are required; both
/// must index the same event catalogue.
struct AnalysisRequest {
  /// Optional caller tag, copied into the result (useful for matching
  /// batch outputs to inputs).
  std::string label;

  const Portfolio* portfolio = nullptr;
  const Yet* yet = nullptr;

  /// Which derived risk metrics to compute, and at which points.
  /// Defaults to none: the metric passes cost extra per-layer work.
  MetricsSpec metrics;

  /// Whether the YLT is kept, discarded after metrics, or spilled to
  /// `ylt_path`. kSpillToFile requires a non-empty `ylt_path`.
  YltRetention ylt_retention = YltRetention::kKeep;
  std::string ylt_path;

  /// When false, the core engine run (and its YLT) is skipped and only
  /// the requested extensions execute — e.g. a pure reinstatement
  /// pricing pass, which derives everything it needs itself. At least
  /// one of core simulation / extensions must remain requested.
  bool core_simulation = true;

  /// Overrides the session's default policy for this request only.
  std::optional<ExecutionPolicy> policy;

  /// Absolute expiry instant. A request whose deadline has passed when
  /// it reaches the front of the dispatch queue is shed *before* any
  /// engine work: its future resolves to DeadlineExceeded and no
  /// tables are built or trials run for it. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Reinstatement extension: when non-empty (one entry per portfolio
  /// layer), the session additionally prices the layers as XL treaties
  /// with reinstatements and fills AnalysisResult::reinstatements.
  std::vector<ext::ReinstatementTerms> reinstatement_terms;

  /// Adaptive execution (opt-in): when set, the session runs shard
  /// waves incrementally and stops granting trial ranges once every
  /// targeted confidence interval is inside tolerance (or the budget
  /// runs out) — AnalysisResult::trials_executed / stopped_early /
  /// half_widths report the outcome. Absent (the default), execution
  /// is the classic fixed-trial run, bitwise identical to before this
  /// field existed. Adaptive runs are reproducible for a given seed
  /// and shard size, but not comparable bitwise to fixed runs unless
  /// they happen to execute the full workload. Incompatible with
  /// kSpillToFile retention and with reinstatement pricing (both
  /// assume the full fixed trial count up front).
  std::optional<metrics::StoppingSpec> stopping;

  /// Secondary-uncertainty extension: when set, the analysis draws a
  /// damage multiplier per occurrence instead of taking ELT losses as
  /// deterministic, and the engine choice in the policy is ignored
  /// (the extension has a single sequential implementation).
  std::optional<ext::SecondaryUncertaintyConfig> secondary_uncertainty;
};

/// Everything one analysis produced: the raw simulation output (YLT +
/// op counts + measured and simulated timings) plus the requested
/// derived metrics and extension results, in one struct.
struct AnalysisResult {
  std::string label;  ///< copied from the request

  /// The engine kind that actually ran. nullopt when an extension
  /// replaced the core engine (secondary uncertainty).
  std::optional<EngineKind> engine;
  bool auto_selected = false;     ///< engine came from kAuto
  double predicted_seconds = 0.0; ///< kAuto's cost-model prediction

  /// Trial shards the simulation executed as (1 = monolithic). The
  /// merged result is bitwise identical either way (DESIGN.md §5).
  std::size_t shard_count = 1;

  /// The raw simulation output. `simulation.ylt` is empty for
  /// YltRetention::kDiscard / kSpillToFile runs — the metrics below
  /// are then the run's product (DESIGN.md §6).
  SimulationResult simulation;

  /// Everything the request's MetricsSpec asked for. Empty when the
  /// spec was none() or no simulation ran.
  metrics::MetricsReport metrics;

  /// Where the YLT was spilled (kSpillToFile only; the io::load_ylt /
  /// io::YltChunkReader format, byte-identical to saving the
  /// monolithic table).
  std::string ylt_path;

  /// Filled when the request carried reinstatement terms.
  std::optional<ext::ReinstatementResult> reinstatements;

  /// Trials actually simulated: the full workload for fixed runs (0
  /// when no core simulation ran), the stopped frontier for adaptive
  /// ones.
  std::size_t trials_executed = 0;
  /// True when an adaptive run stopped before the workload's full
  /// trial count (always false for fixed runs).
  bool stopped_early = false;
  /// The adaptive stopping rule's final per-target confidence
  /// intervals (empty for fixed runs).
  std::vector<metrics::TargetStatus> half_widths;

  /// Metrics of the layer named `label`, or nullptr when per-layer
  /// metrics were not requested / no such layer exists — so batch
  /// consumers look results up by name instead of indexing parallel
  /// vectors by hand.
  const metrics::LayerMetrics* metrics_for(std::string_view label) const {
    return metrics.layer(label);
  }
};

}  // namespace ara
