#include "core/lookup_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ara {

// ---------------------------------------------------------------------------
// SortedLossTable

SortedLossTable::SortedLossTable(const Elt& elt) {
  events_.reserve(elt.size());
  losses_.reserve(elt.size());
  for (const EventLoss& r : elt.records()) {  // already sorted
    events_.push_back(r.event);
    losses_.push_back(r.loss);
  }
}

double SortedLossTable::lookup(EventId event) const {
  const auto it = std::lower_bound(events_.begin(), events_.end(), event);
  if (it != events_.end() && *it == event) {
    return losses_[static_cast<std::size_t>(it - events_.begin())];
  }
  return 0.0;
}

double SortedLossTable::accesses_per_lookup() const {
  // Binary search touches ~log2(n)+1 cache lines in the worst case.
  const double n = static_cast<double>(std::max<std::size_t>(events_.size(), 1));
  return std::log2(n) + 1.0;
}

std::size_t SortedLossTable::memory_bytes() const {
  return events_.size() * sizeof(EventId) + losses_.size() * sizeof(double);
}

// ---------------------------------------------------------------------------
// HashLossTable

namespace {
// Fibonacci hashing of the event id; good avalanche at trivial cost.
inline std::size_t hash_event(EventId e) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(e) * 0x9e3779b97f4a7c15ULL) >> 32);
}
}  // namespace

HashLossTable::HashLossTable(const Elt& elt) {
  std::size_t cap = 16;
  while (cap < elt.size() * 2) cap <<= 1;  // <= 50% load factor
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  for (const EventLoss& r : elt.records()) {
    // Robin-hood insertion: displace richer entries to bound variance
    // of probe lengths.
    Slot incoming{r.event, r.loss};
    std::size_t pos = hash_event(incoming.event) & mask_;
    std::size_t dist = 0;
    for (;;) {
      Slot& s = slots_[pos];
      if (s.event == kInvalidEvent) {
        s = incoming;
        break;
      }
      const std::size_t their_dist =
          (pos + cap - (hash_event(s.event) & mask_)) & mask_;
      if (their_dist < dist) {
        std::swap(s, incoming);
        dist = their_dist;
      }
      pos = (pos + 1) & mask_;
      ++dist;
    }
  }
}

std::size_t HashLossTable::slot_for(EventId event) const {
  return hash_event(event) & mask_;
}

double HashLossTable::lookup(EventId event) const {
  std::size_t pos = slot_for(event);
  for (;;) {
    const Slot& s = slots_[pos];
    if (s.event == event) return s.loss;
    if (s.event == kInvalidEvent) return 0.0;
    pos = (pos + 1) & mask_;
  }
}

double HashLossTable::accesses_per_lookup() const {
  return 1.0 + mean_probe_length();
}

double HashLossTable::mean_probe_length() const {
  std::size_t occupied = 0;
  std::size_t total = 0;
  const std::size_t cap = slots_.size();
  for (std::size_t pos = 0; pos < cap; ++pos) {
    const Slot& s = slots_[pos];
    if (s.event == kInvalidEvent) continue;
    ++occupied;
    total += (pos + cap - (hash_event(s.event) & mask_)) & mask_;
  }
  return occupied == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(occupied);
}

std::size_t HashLossTable::memory_bytes() const {
  return slots_.size() * sizeof(Slot);
}

// ---------------------------------------------------------------------------
// CompressedLossTable

CompressedLossTable::CompressedLossTable(const Elt& elt) {
  const std::size_t nbits = static_cast<std::size_t>(elt.catalogue_size()) + 1;
  const std::size_t nwords = (nbits + 63) / 64;
  // Round up to whole rank blocks so lookup never bounds-checks.
  const std::size_t nblocks = (nwords + kWordsPerBlock - 1) / kWordsPerBlock;
  bits_.assign(nblocks * kWordsPerBlock, 0);
  block_rank_.assign(nblocks + 1, 0);
  losses_.reserve(elt.size());
  for (const EventLoss& r : elt.records()) {  // ascending event order
    bits_[r.event / 64] |= (1ULL << (r.event % 64));
    losses_.push_back(r.loss);
  }
  std::uint32_t rank = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    block_rank_[b] = rank;
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
      rank += static_cast<std::uint32_t>(
          std::popcount(bits_[b * kWordsPerBlock + w]));
    }
  }
  block_rank_[nblocks] = rank;
}

double CompressedLossTable::lookup(EventId event) const {
  const std::size_t word = event / 64;
  const std::uint64_t bit = 1ULL << (event % 64);
  if ((bits_[word] & bit) == 0) return 0.0;
  const std::size_t block = word / kWordsPerBlock;
  std::uint32_t rank = block_rank_[block];
  for (std::size_t w = block * kWordsPerBlock; w < word; ++w) {
    rank += static_cast<std::uint32_t>(std::popcount(bits_[w]));
  }
  rank += static_cast<std::uint32_t>(std::popcount(bits_[word] & (bit - 1)));
  return losses_[rank];
}

std::size_t CompressedLossTable::memory_bytes() const {
  return bits_.size() * sizeof(std::uint64_t) +
         block_rank_.size() * sizeof(std::uint32_t) +
         losses_.size() * sizeof(double);
}

// ---------------------------------------------------------------------------
// CuckooLossTable

namespace {
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

std::size_t CuckooLossTable::h1(EventId e) const {
  return static_cast<std::size_t>(mix64(e ^ salt_)) & mask_;
}

std::size_t CuckooLossTable::h2(EventId e) const {
  return static_cast<std::size_t>(
             mix64(static_cast<std::uint64_t>(e) * 0x9e3779b97f4a7c15ULL ^
                   ~salt_)) &
         mask_;
}

bool CuckooLossTable::try_build(const std::vector<EventLoss>& records) {
  t1_.assign(mask_ + 1, Slot{});
  t2_.assign(mask_ + 1, Slot{});
  // Relocation bound: beyond this the table is considered cyclic and
  // we rehash with a new salt (standard cuckoo insertion).
  const std::size_t max_kicks = 16 + 4 * static_cast<std::size_t>(
      std::log2(static_cast<double>(records.size() + 2)) * 8);
  for (const EventLoss& r : records) {
    Slot item{r.event, r.loss};
    bool in_first = true;
    for (std::size_t kick = 0; kick <= max_kicks; ++kick) {
      Slot& slot = in_first ? t1_[h1(item.event)] : t2_[h2(item.event)];
      if (slot.event == kInvalidEvent) {
        slot = item;
        item.event = kInvalidEvent;
        break;
      }
      std::swap(slot, item);
      in_first = !in_first;
    }
    if (item.event != kInvalidEvent) return false;  // cycle: rehash
  }
  return true;
}

CuckooLossTable::CuckooLossTable(const Elt& elt) {
  std::size_t cap = 8;
  // Two tables at ~2x total => load factor ~0.5, where cuckoo
  // insertion succeeds with high probability.
  while (cap * 2 < elt.size() * 2 + 2) cap <<= 1;
  mask_ = cap - 1;
  salt_ = 0x5bf03635ULL;
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (try_build(elt.records())) return;
    salt_ = mix64(salt_ + attempt + 1);
    if (attempt % 8 == 7) {  // persistent cycles: grow
      cap <<= 1;
      mask_ = cap - 1;
    }
  }
  throw std::runtime_error("CuckooLossTable: rehash limit exceeded");
}

double CuckooLossTable::lookup(EventId event) const {
  const Slot& a = t1_[h1(event)];
  if (a.event == event) return a.loss;
  const Slot& b = t2_[h2(event)];
  if (b.event == event) return b.loss;
  return 0.0;
}

std::size_t CuckooLossTable::memory_bytes() const {
  return (t1_.size() + t2_.size()) * sizeof(Slot);
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<LossLookup> make_lookup(LookupKind kind, const Elt& elt) {
  switch (kind) {
    case LookupKind::kDirectAccess64:
      return std::make_unique<DirectAccessTable<double>>(elt);
    case LookupKind::kDirectAccess32:
      return std::make_unique<DirectAccessTable<float>>(elt);
    case LookupKind::kSorted:
      return std::make_unique<SortedLossTable>(elt);
    case LookupKind::kHash:
      return std::make_unique<HashLossTable>(elt);
    case LookupKind::kCuckoo:
      return std::make_unique<CuckooLossTable>(elt);
    case LookupKind::kCompressed:
      return std::make_unique<CompressedLossTable>(elt);
  }
  throw std::invalid_argument("make_lookup: unknown kind");
}

}  // namespace ara
