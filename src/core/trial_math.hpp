// The portfolio's loss tables, shared by every engine but the
// reference oracle.
//
// `build_tables` lays each distinct referenced ELT out as one column of
// an event-major table and marks every event some column records;
// `select_tables` borrows a prebuilt store (the session's cache) or
// builds one, and `covered_occurrences` cuts a trial down to the
// occurrences the store covers before it is swept. The per-(event,
// layer) operand sequence that turns these tables into trial outcomes
// lives in core/simd/steps.hpp, and `simd::bind_portfolio` plus the
// dispatched `SweepKernel::sweep` (core/simd/) are the one way to drive
// it.
//
// Templated on the loss precision: the optimised GPU engines
// instantiate float (the paper's "reducing the precision of
// variables" optimisation); everything else uses double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/layer.hpp"
#include "core/simd/aligned.hpp"
#include "core/types.hpp"

namespace ara {

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
///
/// `covered` has bit e set when some column records event e (a record
/// of loss 0 included). A row whose bit is clear holds +0.0 in every
/// slot, so its occurrences change no result (DESIGN.md §4) and the
/// sweeps skip them. `bytes()` counts the rows only.
template <typename Real>
struct TableStore {
  simd::TableArray<Real> rows;  ///< events x width slots, row-major
  std::size_t width = 0;        ///< distinct ELTs = columns = row stride
  std::size_t events = 0;       ///< rows: catalogue size + 1
  std::vector<std::vector<std::size_t>> per_layer;  ///< column indices
  std::vector<std::uint64_t> covered;  ///< (events + 63) / 64 words

  std::size_t slots() const noexcept { return width * events; }
  std::size_t bytes() const noexcept { return slots() * sizeof(Real); }
  const Real* data() const noexcept { return rows.get(); }
  /// True when some column records event `e`.
  bool covers(EventId e) const noexcept {
    return ((covered[e / 64] >> (e % 64)) & 1u) != 0;
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
  store.covered.assign((store.events + 63) / 64, 0);
  Real* rows = store.rows.get();
  for (std::size_t c = 0; c < store.width; ++c) {
    for (const EventLoss& r : portfolio.elts()[column_elt[c]].records()) {
      rows[static_cast<std::size_t>(r.event) * store.width + c] =
          static_cast<Real>(r.loss);
      store.covered[r.event / 64] |= std::uint64_t{1} << (r.event % 64);
    }
  }
  return store;
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

/// The occurrences of `trial` whose event `store` covers, in trial
/// order, copied into `scratch` (owned by the caller and reused from
/// trial to trial; grown to the trial's length when shorter). Every
/// store-reading sweep runs on this span instead of the whole trial:
/// an uncovered event's +0.0 row leaves each layer's running values
/// bitwise unchanged, so both give the same bits (DESIGN.md §4). The
/// returned span is valid until `scratch` is next changed.
template <typename Real>
std::span<const EventOccurrence> covered_occurrences(
    const TableStore<Real>& store, std::span<const EventOccurrence> trial,
    std::vector<EventOccurrence>& scratch) {
  if (scratch.size() < trial.size()) scratch.resize(trial.size());
  EventOccurrence* out = scratch.data();
  std::size_t n = 0;
  for (const EventOccurrence& occ : trial) {
    out[n] = occ;  // branch-free: always store, keep it if covered
    n += store.covers(occ.event);
  }
  return {out, n};
}

}  // namespace ara
