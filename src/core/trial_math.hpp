// The portfolio's loss table, shared by every engine but the reference
// oracle.
//
// `build_tables` sums each layer's ELTs once per catalogue event into
// an event-major layer-event table and marks every event some ELT
// records; `select_tables` borrows a prebuilt store (the session's
// cache) or builds one, and `covered_occurrences` cuts a trial down to
// the occurrences the store covers before it is swept. The trial half
// of the per-(event, layer) operand sequence lives in
// core/simd/steps.hpp, and `simd::bind_portfolio` plus
// `SweepKernel::sweep` (core/simd/) are the one way to drive it.
//
// Templated on the loss precision: the optimised GPU engines
// instantiate float (the paper's "reducing the precision of
// variables" optimisation); everything else uses double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/layer.hpp"
#include "core/simd/aligned.hpp"
#include "core/types.hpp"

namespace ara {

/// The portfolio's layer-event table in precision `Real`, event-major:
/// cell (e, a) = rows[e * width + a] is layer a's loss for event e
/// before occurrence terms — the sum, over the layer's ELTs in slot
/// order, of each ELT's loss for e under its financial terms
/// (Algorithm 1, lines 5-13). One occurrence reads one value per layer
/// from one row (DESIGN.md §4). The table takes (catalogue + 1) x
/// layers x sizeof(Real) bytes, whatever the ELTs; it is larger than a
/// per-ELT table only for a book with more layers than distinct ELTs.
/// Rows are not padded. The store owns its rows (simd::TableArray), so
/// it is move-only and a move keeps every view of them valid — it is
/// cheap to move into a session-level cache.
///
/// `covered` has bit e set when some ELT of the portfolio records
/// event e (a record of loss 0 included). A row whose bit is clear
/// holds +0.0 in every cell, so its occurrences change no result
/// (DESIGN.md §4) and the sweeps skip them. `bytes()` counts the rows
/// only.
template <typename Real>
struct TableStore {
  simd::TableArray<Real> rows;  ///< events x width cells, row-major
  std::size_t width = 0;        ///< layers = columns = row stride
  std::size_t events = 0;       ///< rows: catalogue size + 1
  std::vector<std::uint64_t> covered;  ///< (events + 63) / 64 words

  std::size_t slots() const noexcept { return width * events; }
  std::size_t bytes() const noexcept { return slots() * sizeof(Real); }
  const Real* data() const noexcept { return rows.get(); }
  /// True when some ELT records event `e`.
  bool covers(EventId e) const noexcept {
    return ((covered[e / 64] >> (e % 64)) & 1u) != 0;
  }
};

/// Built sparsely from the records: each layer adds each of its ELT
/// slots' terms-applied losses, slot by slot, into the cells of the
/// events that slot records. This is bitwise the dense slot-order sum
/// over every ELT (DESIGN.md §4): an unrecorded event costs exactly
/// +0.0 under valid terms (retention >= 0, finite fx_rate, finite
/// non-negative losses), a sum that starts at +0.0 never turns -0.0,
/// and an ELT records an event at most once.
template <typename Real>
TableStore<Real> build_tables(const Portfolio& portfolio) {
  TableStore<Real> store;
  store.width = portfolio.layer_count();
  store.events = static_cast<std::size_t>(portfolio.catalogue_size()) + 1;
  store.rows = simd::make_table_array<Real>(store.slots());
  store.covered.assign((store.events + 63) / 64, 0);
  Real* rows = store.rows.get();
  for (std::size_t a = 0; a < store.width; ++a) {
    for (const std::size_t idx : portfolio.layers()[a].elt_indices) {
      const Elt& elt = portfolio.elts()[idx];
      for (const EventLoss& r : elt.records()) {
        rows[static_cast<std::size_t>(r.event) * store.width + a] +=
            apply_financial_terms(static_cast<Real>(r.loss), elt.terms());
        store.covered[r.event / 64] |= std::uint64_t{1} << (r.event % 64);
      }
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
