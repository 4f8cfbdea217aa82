// Event Loss Table (ELT): the sparse `event -> loss` dictionary of the
// paper, plus its financial terms. This is the canonical, compact
// representation; the engines build one of the lookup structures in
// core/lookup_table.hpp from it (most importantly the direct access
// table the paper's design is built around).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/financial_terms.hpp"
#include "core/types.hpp"

namespace ara {

/// One record of an ELT: event loss EL_i = {E_i, l_i}.
struct EventLoss {
  EventId event = kInvalidEvent;
  double loss = 0.0;

  friend bool operator==(const EventLoss&, const EventLoss&) = default;
};

/// An Event Loss Table: sorted, duplicate-free event-loss records for
/// one exposure set, plus the financial terms `I` applied to each event
/// loss drawn from this table.
class Elt {
 public:
  Elt() = default;

  /// Builds an ELT from records. Records are sorted by event id;
  /// duplicate event ids, ids outside [1, catalogue_size], negative or
  /// non-finite losses and invalid terms throw std::invalid_argument.
  /// Zero losses are kept (they are legal, just wasteful).
  Elt(std::vector<EventLoss> records, FinancialTerms terms,
      EventId catalogue_size);

  /// Number of non-zero records.
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  /// Size of the event catalogue this table indexes into. A direct
  /// access table built from this ELT has exactly this many slots.
  EventId catalogue_size() const noexcept { return catalogue_size_; }

  const FinancialTerms& terms() const noexcept { return terms_; }

  /// Records sorted by ascending event id.
  const std::vector<EventLoss>& records() const noexcept { return records_; }

  /// O(log n) reference lookup (binary search). Engines use the
  /// dedicated lookup structures instead; this is the correctness
  /// oracle in tests.
  double lookup(EventId event) const;

  /// Sum of all losses (before financial terms).
  double total_loss() const;

 private:
  std::vector<EventLoss> records_;
  FinancialTerms terms_;
  EventId catalogue_size_ = 0;
};

}  // namespace ara
