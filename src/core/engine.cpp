#include "core/engine.hpp"

#include <stdexcept>

namespace ara {

OpCounts count_fused_algorithm_ops(const Portfolio& portfolio,
                                   const Yet& yet) {
  return range_fused_ops(portfolio, yet, 0, yet.trial_count());
}

OpCounts range_ops(const Portfolio& p, const Yet& yet,
                   std::size_t trial_begin, std::size_t trial_end) {
  if (p.catalogue_size() != yet.catalogue_size()) {
    throw std::invalid_argument(
        "range_ops: portfolio and YET index different catalogues");
  }
  if (trial_begin > trial_end || trial_end > yet.trial_count()) {
    // Guard against unresolved TrialRanges (end defaults to kAll);
    // callers resolve() against the trial count first.
    throw std::invalid_argument("range_ops: trial range out of bounds");
  }
  const std::uint64_t occurrences =
      yet.offsets().empty()
          ? 0
          : yet.offsets()[trial_end] - yet.offsets()[trial_begin];
  OpCounts ops;
  for (const Layer& layer : p.layers()) {
    const auto elts = static_cast<std::uint64_t>(layer.elt_indices.size());
    ops.event_fetches += occurrences;
    ops.elt_lookups += elts * occurrences;
    ops.financial_ops += elts * occurrences;
    ops.occurrence_ops += occurrences;
    ops.aggregate_ops += occurrences;
  }
  return ops;
}

OpCounts range_fused_ops(const Portfolio& p, const Yet& yet,
                         std::size_t trial_begin, std::size_t trial_end) {
  OpCounts ops = range_ops(p, yet, trial_begin, trial_end);
  if (p.layer_count() > 0 && !yet.offsets().empty()) {
    ops.event_fetches =
        yet.offsets()[trial_end] - yet.offsets()[trial_begin];
  }
  return ops;
}

}  // namespace ara
