// Loss-lookup structures.
//
// The paper's central data-structure decision (Section III) is to store
// each ELT as a *direct access table*: a dense array indexed by event
// id over the whole catalogue, trading memory (2M slots for ~20k
// non-zero losses) for exactly one memory access per lookup. It
// explicitly discusses and rejects the compact alternatives (sequential
// / binary search, hashing such as cuckoo hashing) because of their
// extra memory accesses.
//
// We implement the direct access table plus the rejected alternatives,
// so the `ablation_lookup_structures` benchmark can reproduce that
// trade-off quantitatively, and a compressed bitmap+rank table that
// implements the paper's future-work item ("compressed representations
// of data in memory").
//
// The sweeping engines do not read DirectAccessTable: they read the
// portfolio's layer-event TableStore (core/trial_math.hpp), whose cell
// (e, a) already sums layer a's ELT losses for event e. The per-ELT
// table stays for the reference engine (the oracle builds its own,
// independent of the store), for secondary uncertainty (its damage
// draws perturb each ELT's own ground-up loss) and for the
// lookup-structure ablation.
//
// All structures are immutable after construction and safe for
// concurrent reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/elt.hpp"
#include "core/types.hpp"

namespace ara {

/// Polymorphic lookup interface used by benchmarks and by engines that
/// are parameterised over the lookup structure. `lookup` returns the
/// loss for `event`, or 0 if the event is not in the table.
class LossLookup {
 public:
  virtual ~LossLookup() = default;

  virtual double lookup(EventId event) const = 0;

  /// Number of memory accesses a single lookup costs on this structure
  /// (model input for the cost models; e.g. 1 for direct access,
  /// ~log2(n) for binary search).
  virtual double accesses_per_lookup() const = 0;

  /// Resident bytes of the structure (model input for memory budgets).
  virtual std::size_t memory_bytes() const = 0;

  virtual std::string name() const = 0;
};

/// Dense array over the full event catalogue; slot e holds the loss of
/// event e (0 when absent). One random memory access per lookup.
template <typename Real>
class DirectAccessTable final : public LossLookup {
 public:
  explicit DirectAccessTable(const Elt& elt)
      : losses_(static_cast<std::size_t>(elt.catalogue_size()) + 1,
                Real(0)) {
    for (const EventLoss& r : elt.records()) {
      losses_[r.event] = static_cast<Real>(r.loss);
    }
  }

  /// Unchecked fast path used by the engines' inner loops.
  Real at(EventId event) const { return losses_[event]; }

  double lookup(EventId event) const override {
    return static_cast<double>(losses_[event]);
  }
  double accesses_per_lookup() const override { return 1.0; }
  std::size_t memory_bytes() const override {
    return losses_.size() * sizeof(Real);
  }
  std::string name() const override {
    return sizeof(Real) == 4 ? "direct_access_f32" : "direct_access_f64";
  }

  std::size_t slots() const noexcept { return losses_.size(); }

  /// The dense slot array, indexable by event id.
  std::span<const Real> data() const noexcept {
    return {losses_.data(), losses_.size()};
  }

 private:
  std::vector<Real> losses_;
};

/// Sorted compact table; binary-search lookup (O(log n) accesses).
class SortedLossTable final : public LossLookup {
 public:
  explicit SortedLossTable(const Elt& elt);

  double lookup(EventId event) const override;
  double accesses_per_lookup() const override;
  std::size_t memory_bytes() const override;
  std::string name() const override { return "sorted_binary_search"; }

 private:
  std::vector<EventId> events_;
  std::vector<double> losses_;
};

/// Open-addressing hash table with linear probing and a power-of-two
/// slot count at ~50% load factor; the "constant-time hashing" family
/// the paper discusses (we use robin-hood-style insertion to bound
/// probe lengths).
class HashLossTable final : public LossLookup {
 public:
  explicit HashLossTable(const Elt& elt);

  double lookup(EventId event) const override;
  double accesses_per_lookup() const override;
  std::size_t memory_bytes() const override;
  std::string name() const override { return "hash_linear_probe"; }

  /// Mean probe length over occupied slots (diagnostics/tests).
  double mean_probe_length() const;

 private:
  struct Slot {
    EventId event = kInvalidEvent;  // kInvalidEvent marks an empty slot
    double loss = 0.0;
  };

  std::size_t slot_for(EventId event) const;

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Compressed direct-access table (the paper's future-work item):
/// a presence bitvector over the catalogue with 512-bit rank blocks,
/// plus a packed array of the non-zero losses. Lookup = bit test +
/// rank (popcounts within one cache line) + one packed-array access:
/// ~2-3 memory accesses, but memory drops from O(catalogue) doubles to
/// catalogue/8 bits + O(n) doubles.
class CompressedLossTable final : public LossLookup {
 public:
  explicit CompressedLossTable(const Elt& elt);

  double lookup(EventId event) const override;
  double accesses_per_lookup() const override { return 3.0; }
  std::size_t memory_bytes() const override;
  std::string name() const override { return "compressed_bitmap_rank"; }

 private:
  static constexpr std::size_t kWordsPerBlock = 8;  // 512 bits

  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> block_rank_;  // rank at block start
  std::vector<double> losses_;             // packed non-zero losses
};

/// Cuckoo hash table (Pagh & Rodler 2004) — the space-efficient
/// constant-time scheme the paper names and rejects for its
/// "considerable implementation and run-time performance complexity"
/// on GPUs. Two hash functions, two tables; a lookup probes exactly
/// two slots (worst case), insertion relocates displaced keys.
class CuckooLossTable final : public LossLookup {
 public:
  explicit CuckooLossTable(const Elt& elt);

  double lookup(EventId event) const override;
  /// Worst-case two probes; on average ~1.5 (half of the present keys
  /// are found in the first table).
  double accesses_per_lookup() const override { return 2.0; }
  std::size_t memory_bytes() const override;
  std::string name() const override { return "cuckoo_hash"; }

 private:
  struct Slot {
    EventId event = kInvalidEvent;
    double loss = 0.0;
  };

  std::size_t h1(EventId e) const;
  std::size_t h2(EventId e) const;
  bool try_build(const std::vector<EventLoss>& records);

  std::vector<Slot> t1_, t2_;
  std::size_t mask_ = 0;
  std::uint64_t salt_ = 0;
};

/// Factory for the polymorphic structures, used by benchmarks.
enum class LookupKind {
  kDirectAccess64,
  kDirectAccess32,
  kSorted,
  kHash,
  kCuckoo,
  kCompressed,
};

std::unique_ptr<LossLookup> make_lookup(LookupKind kind, const Elt& elt);

}  // namespace ara
