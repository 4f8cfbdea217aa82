#include "extensions/secondary_uncertainty.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/trial_math.hpp"
#include "perf/cpu_cost_model.hpp"
#include "perf/machine_profile.hpp"
#include "perf/stopwatch.hpp"
#include "synth/distributions.hpp"
#include "synth/rng.hpp"

namespace ara::ext {

SimulationResult SecondaryUncertaintyEngine::run(
    const Portfolio& portfolio, const Yet& yet,
    const EngineContext& context) const {
  if (portfolio.catalogue_size() != yet.catalogue_size()) {
    throw std::invalid_argument(
        "SecondaryUncertaintyEngine: portfolio and YET index different "
        "catalogues");
  }
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.trial_begin = range.begin;
  result.ops = range_ops(portfolio, yet, range.begin, range.end);

  perf::Stopwatch wall;
  if (context.cost_only) {
    const perf::CpuCostModel model(perf::intel_i7_2600());
    result.simulated_phases = model.estimate(result.ops, 1);
    result.simulated_seconds = result.simulated_phases.total();
    return result;
  }
  // Layer-major on purpose: each (layer, trial) owns a deterministic
  // RNG sub-stream whose draws are consumed in per-layer order, so the
  // trial-major fusion would reorder nothing but is not needed either.
  TableStore<double> local;
  const TableStore<double>& tables =
      *select_tables(context.tables_f64, local, portfolio);
  result.ylt = Ylt(portfolio.layer_count(), range.size());

  const double mean_beta = config_.alpha / (config_.alpha + config_.beta);

  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    const BoundLayer<double> layer = bind_layer(portfolio, tables, a);
    for (std::size_t b = range.begin; b < range.end; ++b) {
      // One deterministic sub-stream per (layer, trial): draws are
      // keyed by the *global* trial index, so results do not depend on
      // how trials are scheduled across engines/devices/shards.
      synth::Xoshiro256StarStar rng(synth::substream(
          config_.seed, (static_cast<std::uint64_t>(a) << 40) | b));
      synth::BetaSampler damage(config_.alpha, config_.beta);

      const auto trial = yet.trial(static_cast<TrialId>(b));
      double cumulative = 0.0, prev_capped = 0.0;
      double annual = 0.0, max_occ = 0.0;
      for (const EventOccurrence& occ : trial) {
        double combined = 0.0;
        for (std::size_t j = 0; j < layer.elt_count(); ++j) {
          const double ground = layer.tables[j].at(occ.event);
          if (ground == 0.0) continue;  // no draw for uncovered events
          const double multiplier = damage.sample(rng) / mean_beta;
          combined +=
              apply_financial_terms(ground * multiplier, layer.terms[j]);
        }
        const double occ_loss =
            apply_occurrence_terms(combined, layer.layer_terms);
        max_occ = std::max(max_occ, occ_loss);
        cumulative += occ_loss;
        const double capped =
            apply_aggregate_terms(cumulative, layer.layer_terms);
        annual += capped - prev_capped;
        prev_capped = capped;
      }
      result.ylt.annual_loss(a, static_cast<TrialId>(b - range.begin)) =
          annual;
      result.ylt.max_occurrence_loss(
          a, static_cast<TrialId>(b - range.begin)) = max_occ;
    }
  }
  result.wall_seconds = wall.seconds();

  const perf::CpuCostModel model(perf::intel_i7_2600());
  result.simulated_phases = model.estimate(result.ops, 1);
  result.simulated_seconds = result.simulated_phases.total();
  return result;
}

}  // namespace ara::ext
