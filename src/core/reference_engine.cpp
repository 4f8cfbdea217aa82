#include "core/reference_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/layer.hpp"
#include "core/layer_terms.hpp"
#include "core/lookup_table.hpp"
#include "perf/cpu_cost_model.hpp"
#include "perf/machine_profile.hpp"
#include "perf/stopwatch.hpp"

namespace ara {

namespace {

// The oracle's own tables: one DirectAccessTable per ELT the portfolio
// references, built from the ELT records. Reading these instead of the
// shared event-major store keeps the oracle independent of
// build_tables, so a wrong column map there cannot be repeated here.
class OwnTables {
 public:
  explicit OwnTables(const Portfolio& portfolio)
      : tables_(portfolio.elt_count()) {
    for (const Layer& layer : portfolio.layers()) {
      for (const std::size_t idx : layer.elt_indices) {
        if (!tables_[idx]) {
          tables_[idx] = std::make_unique<DirectAccessTable<double>>(
              portfolio.elts()[idx]);
        }
      }
    }
  }

  /// ELT `idx`'s table (the ELT must be referenced by some layer).
  const DirectAccessTable<double>& of(std::size_t idx) const {
    return *tables_[idx];
  }

 private:
  std::vector<std::unique_ptr<DirectAccessTable<double>>> tables_;
};

}  // namespace

SimulationResult ReferenceEngine::run(const Portfolio& portfolio,
                                      const Yet& yet,
                                      const EngineContext& context) const {
  if (portfolio.catalogue_size() != yet.catalogue_size()) {
    throw std::invalid_argument(
        "ReferenceEngine: portfolio and YET index different catalogues");
  }
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.trial_begin = range.begin;
  result.ops = range_ops(portfolio, yet, range.begin, range.end);
  result.ops.global_updates = result.ops.occurrence_ops *  // per (layer,event)
                              kScratchTouchesPerEvent;

  perf::Stopwatch wall;
  if (context.cost_only) {
    const perf::CpuCostModel model(perf::intel_i7_2600());
    result.simulated_phases = model.estimate(result.ops, /*cores=*/1);
    result.simulated_seconds = result.simulated_phases.total();
    return result;
  }
  const OwnTables tables(portfolio);
  result.ylt = Ylt(portfolio.layer_count(), range.size());

  // Per-trial scratch arrays, sized to the largest trial: x (ground-up
  // losses of one ELT), lx (after financial terms) and lox (combined
  // event losses) — the d-indexed arrays of Algorithm 1.
  std::size_t max_events = 0;
  for (std::size_t t = range.begin; t < range.end; ++t) {
    max_events = std::max(max_events, yet.trial_size(static_cast<TrialId>(t)));
  }
  std::vector<double> x(max_events), lx(max_events), lox(max_events);

  const bool profiled = config_.profile_phases;
  perf::Stopwatch phase;
  auto charge = [&](perf::Phase p) {
    if (profiled) {
      result.measured_phases[p] += phase.seconds();
      phase.reset();
    }
  };

  // Line 2: for all a in L
  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    const Layer& layer = portfolio.layers()[a];
    const LayerTerms& lt = layer.terms;
    // Line 3: for all b in YET (this run's trial range)
    for (std::size_t b = range.begin; b < range.end; ++b) {
      const auto trial = yet.trial(static_cast<TrialId>(b));
      const std::size_t k = trial.size();
      if (profiled) phase.reset();
      std::fill_n(lox.begin(), k, 0.0);
      charge(perf::Phase::kOther);

      // Line 4: for all c in (EL in a) — each ELT covered by the layer.
      for (const std::size_t c : layer.elt_indices) {
        const DirectAccessTable<double>& table = tables.of(c);
        const FinancialTerms& terms = portfolio.elts()[c].terms();
        // Lines 5-7: look up each event of the trial in ELT c.
        for (std::size_t d = 0; d < k; ++d) {
          x[d] = table.at(trial[d].event);
        }
        charge(perf::Phase::kLossLookup);
        // Lines 8-10: apply the ELT's financial terms.
        for (std::size_t d = 0; d < k; ++d) {
          lx[d] = apply_financial_terms(x[d], terms);
        }
        charge(perf::Phase::kFinancialTerms);
        // Lines 11-13: accumulate across ELTs into one loss per event.
        for (std::size_t d = 0; d < k; ++d) {
          lox[d] += lx[d];
        }
        charge(perf::Phase::kFinancialTerms);
      }

      // Lines 15-17: occurrence terms.
      for (std::size_t d = 0; d < k; ++d) {
        lox[d] = apply_occurrence_terms(lox[d], lt);
      }
      charge(perf::Phase::kOccurrenceTerms);
      double max_occ = 0.0;
      for (std::size_t d = 0; d < k; ++d) {
        max_occ = std::max(max_occ, lox[d]);
      }
      charge(perf::Phase::kOther);

      // Lines 18-20: prefix sum.
      for (std::size_t d = 1; d < k; ++d) {
        lox[d] += lox[d - 1];
      }
      // Lines 21-23: aggregate terms on the cumulative losses.
      for (std::size_t d = 0; d < k; ++d) {
        lox[d] = apply_aggregate_terms(lox[d], lt);
      }
      // Lines 24-26: difference back to per-event marginal losses.
      for (std::size_t d = k; d-- > 1;) {
        lox[d] -= lox[d - 1];
      }
      // Lines 27-29: the trial (year) loss l_r.
      double lr = 0.0;
      for (std::size_t d = 0; d < k; ++d) {
        lr += lox[d];
      }
      charge(perf::Phase::kAggregateTerms);

      result.ylt.annual_loss(a, static_cast<TrialId>(b - range.begin)) = lr;
      result.ylt.max_occurrence_loss(
          a, static_cast<TrialId>(b - range.begin)) = max_occ;
    }
  }
  result.wall_seconds = wall.seconds();

  // Simulated time on the paper's i7-2600, sequential configuration.
  const perf::CpuCostModel model(perf::intel_i7_2600());
  result.simulated_phases = model.estimate(result.ops, /*cores=*/1);
  result.simulated_seconds = result.simulated_phases.total();
  return result;
}

}  // namespace ara
