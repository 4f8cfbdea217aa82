#include "extensions/reinstatements.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/simd/bound_portfolio.hpp"
#include "core/trial_math.hpp"

namespace ara::ext {

double ReinstatementResult::expected_recovery(std::size_t layer) const {
  if (trials_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t t = 0; t < trials_; ++t) {
    sum += outcomes_[layer * trials_ + t].recovered;
  }
  return sum / static_cast<double>(trials_);
}

double ReinstatementResult::expected_reinstatement_premium(
    std::size_t layer) const {
  if (trials_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t t = 0; t < trials_; ++t) {
    sum += outcomes_[layer * trials_ + t].reinstatement_premium;
  }
  return sum / static_cast<double>(trials_);
}

void ReinstatementResult::merge_trial_block(const ReinstatementResult& other,
                                            std::size_t trial_begin) {
  if (other.layers_ != layers_) {
    throw std::invalid_argument(
        "ReinstatementResult::merge_trial_block: layer count mismatch");
  }
  if (trial_begin + other.trials_ > trials_) {
    throw std::invalid_argument(
        "ReinstatementResult::merge_trial_block: range out of bounds");
  }
  for (std::size_t l = 0; l < layers_; ++l) {
    std::copy_n(other.outcomes_.begin() + l * other.trials_, other.trials_,
                outcomes_.begin() + l * trials_ + trial_begin);
  }
}

ReinstatementOutcome evaluate_reinstatement_trial(
    const std::vector<double>& occurrence_losses,
    const ReinstatementTerms& terms) {
  if (!terms.valid()) {
    throw std::invalid_argument(
        "evaluate_reinstatement_trial: invalid terms");
  }
  ReinstatementOutcome out;
  double capacity = terms.annual_capacity();
  // Limit consumption that can still be restored (the first N x OccL).
  const double reinstatable_total =
      static_cast<double>(terms.reinstatements) * terms.occ_limit;
  double consumed = 0.0;
  for (const double loss : occurrence_losses) {
    if (capacity <= 0.0) break;  // layer exhausted for the year
    double recovery = loss - terms.occ_retention;
    if (recovery <= 0.0) continue;
    recovery = std::min({recovery, terms.occ_limit, capacity});
    capacity -= recovery;
    out.recovered += recovery;
    // Pro-rata reinstatement premium on the restorable part of the
    // consumption (consumption beyond N x OccL burns the final limit
    // and is not restored).
    const double restorable =
        std::max(0.0, std::min(consumed + recovery, reinstatable_total) -
                          std::min(consumed, reinstatable_total));
    out.reinstated += restorable;
    out.reinstatement_premium += restorable / terms.occ_limit *
                                 terms.premium_rate * terms.upfront_premium;
    consumed += recovery;
  }
  return out;
}

ReinstatementEngine::ReinstatementEngine(
    const Portfolio& portfolio, std::vector<ReinstatementTerms> terms)
    : portfolio_(portfolio), terms_(std::move(terms)) {
  if (terms_.size() != portfolio_.layer_count()) {
    throw std::invalid_argument(
        "ReinstatementEngine: one ReinstatementTerms per layer required");
  }
  for (const ReinstatementTerms& t : terms_) {
    if (!t.valid()) {
      throw std::invalid_argument(
          "ReinstatementEngine: invalid reinstatement terms");
    }
  }
}

ReinstatementResult ReinstatementEngine::run(
    const Yet& yet, const TableStore<double>* shared_tables,
    TrialRange trials) const {
  if (portfolio_.catalogue_size() != yet.catalogue_size()) {
    throw std::invalid_argument(
        "ReinstatementEngine: portfolio and YET index different catalogues");
  }
  const TrialRange range = trials.resolve(yet.trial_count());
  ReinstatementResult result(portfolio_.layer_count(), range.size());
  TableStore<double> local;
  const TableStore<double>& tables =
      *select_tables(shared_tables, local, portfolio_);
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(portfolio_, tables);

  // Each covered occurrence's loss before occurrence terms, column a of
  // the layer-event table: the reinstatement walk applies its own
  // occurrence limit and capacity. An uncovered occurrence's loss is 0,
  // a recovery <= 0 the walk skips, so leaving it out changes no
  // outcome.
  std::vector<EventOccurrence> scratch;
  std::vector<double> occ_losses;
  for (std::size_t a = 0; a < portfolio_.layer_count(); ++a) {
    for (std::size_t b = range.begin; b < range.end; ++b) {
      const auto trial = covered_occurrences(
          tables, yet.trial(static_cast<TrialId>(b)), scratch);
      occ_losses.clear();
      occ_losses.reserve(trial.size());
      for (const EventOccurrence& occ : trial) {
        occ_losses.push_back(bp.row(occ.event)[a]);
      }
      result.at(a, static_cast<TrialId>(b - range.begin)) =
          evaluate_reinstatement_trial(occ_losses, terms_[a]);
    }
  }
  return result;
}

}  // namespace ara::ext
