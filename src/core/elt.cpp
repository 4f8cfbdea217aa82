#include "core/elt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ara {

Elt::Elt(std::vector<EventLoss> records, FinancialTerms terms,
         EventId catalogue_size)
    : records_(std::move(records)),
      terms_(terms),
      catalogue_size_(catalogue_size) {
  if (catalogue_size_ == 0) {
    throw std::invalid_argument("Elt: catalogue_size must be > 0");
  }
  if (!terms_.valid()) {
    throw std::invalid_argument("Elt: invalid financial terms");
  }
  std::sort(records_.begin(), records_.end(),
            [](const EventLoss& a, const EventLoss& b) {
              return a.event < b.event;
            });
  EventId prev = kInvalidEvent;
  for (const EventLoss& r : records_) {
    if (r.event == kInvalidEvent || r.event > catalogue_size_) {
      throw std::invalid_argument("Elt: event id out of catalogue range");
    }
    if (r.event == prev) {
      throw std::invalid_argument("Elt: duplicate event id");
    }
    if (!(r.loss >= 0.0) || !std::isfinite(r.loss)) {
      throw std::invalid_argument("Elt: losses must be finite and "
                                  "non-negative");
    }
    prev = r.event;
  }
}

double Elt::lookup(EventId event) const {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), event,
      [](const EventLoss& r, EventId e) { return r.event < e; });
  if (it != records_.end() && it->event == event) return it->loss;
  return 0.0;
}

double Elt::total_loss() const {
  double sum = 0.0;
  for (const EventLoss& r : records_) sum += r.loss;
  return sum;
}

}  // namespace ara
