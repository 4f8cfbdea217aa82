#include "extensions/secondary_uncertainty.hpp"

#include <stdexcept>
#include <vector>

#include "core/simd/bound_portfolio.hpp"
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
  TableStore<double> local;
  const TableStore<double>& tables =
      *select_tables(context.tables_f64, local, portfolio);
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(portfolio, tables);
  result.ylt = Ylt(portfolio.layer_count(), range.size());
  std::vector<EventOccurrence> scratch;

  const double mean_beta = config_.alpha / (config_.alpha + config_.beta);

  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    const simd::EltSlots<double> slots = simd::layer_slots(bp, a);
    const simd::XlTerms<double> terms = simd::xl_terms(bp, a);
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
        const std::size_t row = simd::row_of(bp, occ.event);
        // One damage draw per non-zero (occurrence, ELT) loss, in slot
        // order; a zero loss draws nothing and contributes exactly +0.0
        // to the sum.
        const double combined =
            simd::elt_sum(slots, [&](std::uint32_t j) {
              const double ground = slots.table_base[j][row];
              return ground == 0.0 ? 0.0
                                   : ground * (damage.sample(rng) / mean_beta);
            });
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
