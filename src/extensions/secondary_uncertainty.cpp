#include "extensions/secondary_uncertainty.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/lookup_table.hpp"
#include "core/simd/steps.hpp"
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
  // The damage draws perturb each ELT's own ground-up loss, which the
  // layer-event table has already summed away, so this engine reads
  // per-ELT tables, built per run; the store serves only its coverage.
  TableStore<double> local;
  const TableStore<double>& tables =
      *select_tables(context.tables_f64, local, portfolio);
  std::vector<std::unique_ptr<DirectAccessTable<double>>> ground(
      portfolio.elt_count());
  for (const Layer& layer : portfolio.layers()) {
    for (const std::size_t idx : layer.elt_indices) {
      if (!ground[idx]) {
        ground[idx] =
            std::make_unique<DirectAccessTable<double>>(portfolio.elts()[idx]);
      }
    }
  }
  result.ylt = Ylt(portfolio.layer_count(), range.size());
  std::vector<EventOccurrence> scratch;

  const double mean_beta = config_.alpha / (config_.alpha + config_.beta);

  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    const Layer& layer = portfolio.layers()[a];
    const simd::XlTerms<double> terms = simd::xl_terms<double>(layer.terms);
    for (std::size_t b = range.begin; b < range.end; ++b) {
      // One deterministic sub-stream per (layer, trial): draws are
      // keyed by the *global* trial index, so results do not depend on
      // how trials are scheduled across engines/devices/shards.
      synth::Xoshiro256StarStar rng(synth::substream(
          config_.seed, (static_cast<std::uint64_t>(a) << 40) | b));
      synth::BetaSampler damage(config_.alpha, config_.beta);

      // Covered occurrences only: an uncovered event would draw
      // nothing and add +0.0, so skipping it moves neither the
      // sub-stream nor the result.
      const auto trial = covered_occurrences(
          tables, yet.trial(static_cast<TrialId>(b)), scratch);
      double max_occ = 0.0, cumulative = 0.0;
      double prev_capped = 0.0, annual = 0.0;
      for (const EventOccurrence& occ : trial) {
        // One damage draw per non-zero (occurrence, ELT) loss, in slot
        // order, each under its ELT's terms and summed in slot order; a
        // zero loss draws nothing and contributes exactly +0.0.
        double combined = 0.0;
        for (const std::size_t idx : layer.elt_indices) {
          const double loss = ground[idx]->at(occ.event);
          combined += apply_financial_terms(
              loss == 0.0 ? 0.0 : loss * (damage.sample(rng) / mean_beta),
              portfolio.elts()[idx].terms());
        }
        simd::aggregate_step(terms, combined, max_occ, cumulative,
                             prev_capped, annual);
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
