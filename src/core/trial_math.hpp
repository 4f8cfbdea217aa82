// Shared per-trial simulation math.
//
// `simulate_trial_fused` is the single-pass formulation of Algorithm 1
// lines 4-29: mathematically identical to the literal four-pass
// version (the reference engine implements that one, and a property
// suite asserts equality), but streaming — it keeps only O(1) state
// per trial, which is what the optimised GPU kernel holds in
// registers.
//
// `simulate_trial_multilayer` is the trial-major formulation on top of
// the fused one: a single pass over the trial's occurrences updates
// the running state of *every* bound layer, so the YET (by far the
// largest input) is streamed once per trial instead of once per
// (layer, trial), and all of an event id's table lookups across layers
// happen while the occurrence is hot in cache. Each layer's operand
// sequence is exactly the one `simulate_trial_fused` executes, so the
// two formulations are bitwise identical per layer (property-tested).
//
// Templated on the loss precision: the optimised GPU engine
// instantiates float (the paper's "reducing the precision of
// variables" optimisation); everything else uses double.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/layer.hpp"
#include "core/layer_terms.hpp"
#include "core/lookup_table.hpp"
#include "core/simd/aligned.hpp"
#include "core/types.hpp"

namespace ara {

/// Per-trial outputs: the year loss (Algorithm 1's l_r) and the
/// maximum single-occurrence loss net of occurrence terms (for OEP
/// curves).
template <typename Real>
struct TrialOutcome {
  Real annual = Real(0);
  Real max_occurrence = Real(0);
};

/// One layer's tables, bound to precision `Real`: a loss column plus
/// financial terms per covered ELT. The columns are strided views of
/// the event-major TableStore (or, in the reference engine, stride-1
/// views of its own per-ELT tables).
template <typename Real>
struct BoundLayer {
  std::vector<LossColumn<Real>> tables;
  std::vector<FinancialTerms> terms;
  LayerTerms layer_terms;

  std::size_t elt_count() const noexcept { return tables.size(); }
};

/// The portfolio's loss table in precision `Real`, event-major: row e
/// holds event e's loss under every distinct referenced ELT, side by
/// side in first-reference order, so one occurrence reads one row (2-3
/// adjacent cache lines on one page) instead of one line of a separate
/// dense table per ELT (DESIGN.md §4). Layers may share ELTs, so the
/// row width is the number of *distinct* ELTs and `per_layer[a][j]` is
/// the column of layer a's j-th ELT: a book of 30 layers over a shared
/// 40-ELT pool has 40 columns, not up to 900. Rows are not padded. The
/// store owns its rows (simd::TableArray), so it is move-only and a
/// move keeps every view of them valid — it is cheap to move into a
/// session-level cache.
template <typename Real>
struct TableStore {
  simd::TableArray<Real> rows;  ///< events x width slots, row-major
  std::size_t width = 0;        ///< distinct ELTs = columns = row stride
  std::size_t events = 0;       ///< rows: catalogue size + 1
  std::vector<std::vector<std::size_t>> per_layer;  ///< column indices

  std::size_t slots() const noexcept { return width * events; }
  std::size_t bytes() const noexcept { return slots() * sizeof(Real); }
  const Real* data() const noexcept { return rows.get(); }
  LossColumn<Real> column(std::size_t c) const noexcept {
    return {rows.get() + c, width};
  }
};

template <typename Real>
TableStore<Real> build_tables(const Portfolio& portfolio) {
  constexpr std::size_t kUnreferenced = static_cast<std::size_t>(-1);
  TableStore<Real> store;

  // Each distinct referenced ELT gets a column, in first-reference
  // order.
  std::vector<std::size_t> column(portfolio.elt_count(), kUnreferenced);
  std::vector<std::size_t> column_elt;
  store.per_layer.reserve(portfolio.layer_count());
  for (const Layer& layer : portfolio.layers()) {
    std::vector<std::size_t> columns;
    columns.reserve(layer.elt_indices.size());
    for (const std::size_t idx : layer.elt_indices) {
      if (column[idx] == kUnreferenced) {
        column[idx] = column_elt.size();
        column_elt.push_back(idx);
      }
      columns.push_back(column[idx]);
    }
    store.per_layer.push_back(std::move(columns));
  }

  store.width = column_elt.size();
  store.events = static_cast<std::size_t>(portfolio.catalogue_size()) + 1;
  store.rows = simd::make_table_array<Real>(store.slots());
  Real* rows = store.rows.get();
  for (std::size_t c = 0; c < store.width; ++c) {
    for (const EventLoss& r : portfolio.elts()[column_elt[c]].records()) {
      rows[static_cast<std::size_t>(r.event) * store.width + c] =
          static_cast<Real>(r.loss);
    }
  }
  return store;
}

template <typename Real>
BoundLayer<Real> bind_layer(const Portfolio& portfolio,
                            const TableStore<Real>& store,
                            std::size_t layer_index) {
  const Layer& layer = portfolio.layers()[layer_index];
  BoundLayer<Real> bound;
  bound.layer_terms = layer.terms;
  bound.tables.reserve(layer.elt_indices.size());
  bound.terms.reserve(layer.elt_indices.size());
  for (std::size_t j = 0; j < layer.elt_indices.size(); ++j) {
    bound.tables.push_back(store.column(store.per_layer[layer_index][j]));
    bound.terms.push_back(portfolio.elts()[layer.elt_indices[j]].terms());
  }
  return bound;
}

/// Borrow-or-build: returns `shared` when the caller was handed a
/// prebuilt store (e.g. the session's cache), otherwise builds the
/// portfolio's tables into `local` and returns that. The returned
/// pointer is valid as long as both arguments are.
template <typename Real>
const TableStore<Real>* select_tables(const TableStore<Real>* shared,
                                      TableStore<Real>& local,
                                      const Portfolio& portfolio) {
  if (shared != nullptr) return shared;
  local = build_tables<Real>(portfolio);
  return &local;
}

/// All layers of the portfolio bound at once (the input of the
/// trial-major sweep).
template <typename Real>
std::vector<BoundLayer<Real>> bind_all_layers(const Portfolio& portfolio,
                                              const TableStore<Real>& store) {
  std::vector<BoundLayer<Real>> bound;
  bound.reserve(portfolio.layer_count());
  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    bound.push_back(bind_layer(portfolio, store, a));
  }
  return bound;
}

/// Running state of one layer inside a fused sweep: the fused
/// formulation's O(1) registers plus the finished outcome.
template <typename Real>
struct LayerTrialState {
  Real cumulative = Real(0);
  Real prev_capped = Real(0);
  TrialOutcome<Real> out;
};

/// One occurrence applied to one layer's running state — the single
/// operand sequence every fused formulation executes: lookup +
/// financial terms accumulated across ELTs, occurrence terms, then the
/// running aggregate terms (prefix sum + clamp + diff). The per-layer
/// and trial-major CPU sweeps and the chunk-staged GPU kernels all
/// call this; the bitwise identity the engines promise depends on
/// there being exactly one copy of this sequence.
template <typename Real>
inline void apply_event_to_layer(EventId ev, const BoundLayer<Real>& layer,
                                 LayerTrialState<Real>& s) {
  Real combined = Real(0);
  const std::size_t elts = layer.elt_count();
  for (std::size_t j = 0; j < elts; ++j) {
    combined += apply_financial_terms(layer.tables[j].at(ev), layer.terms[j]);
  }
  const Real occ_loss = apply_occurrence_terms(combined, layer.layer_terms);
  if (occ_loss > s.out.max_occurrence) s.out.max_occurrence = occ_loss;
  s.cumulative += occ_loss;
  const Real capped = apply_aggregate_terms(s.cumulative, layer.layer_terms);
  s.out.annual += capped - s.prev_capped;
  s.prev_capped = capped;
}

/// Single-pass evaluation of one trial against one layer.
template <typename Real>
TrialOutcome<Real> simulate_trial_fused(
    std::span<const EventOccurrence> trial, const BoundLayer<Real>& layer) {
  LayerTrialState<Real> s;
  for (const EventOccurrence& occ : trial) {
    apply_event_to_layer(occ.event, layer, s);
  }
  return s.out;
}

/// Trial-major evaluation of one trial against *all* bound layers in a
/// single pass over the occurrences. `state` (one entry per layer,
/// reused across trials by the caller to avoid per-trial allocation)
/// is reset on entry; on return `state[a].out` is exactly what
/// `simulate_trial_fused(trial, layers[a])` returns — the per-layer
/// operand order is identical, so the results are bitwise equal.
template <typename Real>
void simulate_trial_multilayer(std::span<const EventOccurrence> trial,
                               std::span<const BoundLayer<Real>> layers,
                               std::span<LayerTrialState<Real>> state) {
  for (auto& s : state) s = LayerTrialState<Real>{};
  for (const EventOccurrence& occ : trial) {
    // One YET read serves every layer; each event id's table lookups
    // across layers happen back to back.
    for (std::size_t a = 0; a < layers.size(); ++a) {
      apply_event_to_layer(occ.event, layers[a], state[a]);
    }
  }
}

}  // namespace ara
