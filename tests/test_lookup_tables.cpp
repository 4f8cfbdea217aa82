#include "core/lookup_table.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "synth/rng.hpp"

namespace ara {
namespace {

Elt random_elt(EventId catalogue, std::size_t records, std::uint64_t seed) {
  synth::Xoshiro256StarStar rng(seed);
  std::vector<EventLoss> recs;
  recs.reserve(records);
  // Distinct ids via stride sampling.
  const EventId stride = catalogue / static_cast<EventId>(records);
  for (std::size_t i = 0; i < records; ++i) {
    const EventId base = 1 + static_cast<EventId>(i) * stride;
    const EventId jitter =
        static_cast<EventId>(rng.next_below(std::max<EventId>(1, stride)));
    recs.push_back({base + jitter, 1.0 + rng.next_double() * 999.0});
  }
  return Elt(std::move(recs), FinancialTerms::identity(), catalogue);
}

TEST(DirectAccessTable, MatchesEltLookup) {
  const Elt elt = random_elt(1000, 50, 1);
  const DirectAccessTable<double> table(elt);
  for (EventId e = 1; e <= 1000; ++e) {
    EXPECT_DOUBLE_EQ(table.lookup(e), elt.lookup(e)) << "event " << e;
  }
}

TEST(DirectAccessTable, HasOneSlotPerCatalogueEvent) {
  const Elt elt = random_elt(1000, 50, 2);
  const DirectAccessTable<double> table(elt);
  EXPECT_EQ(table.slots(), 1001u);  // slot 0 unused (invalid event)
  EXPECT_EQ(table.memory_bytes(), 1001u * sizeof(double));
  EXPECT_DOUBLE_EQ(table.accesses_per_lookup(), 1.0);
}

TEST(DirectAccessTable, FloatVariantQuantizes) {
  const Elt elt({{3, 1.0e7}}, FinancialTerms::identity(), 10);
  const DirectAccessTable<float> table(elt);
  EXPECT_NEAR(table.lookup(3), 1.0e7, 1.0);
  EXPECT_EQ(table.memory_bytes(), 11u * sizeof(float));
}

TEST(SortedLossTable, MatchesEltLookup) {
  const Elt elt = random_elt(5000, 200, 3);
  const SortedLossTable table(elt);
  for (EventId e = 1; e <= 5000; e += 7) {
    EXPECT_DOUBLE_EQ(table.lookup(e), elt.lookup(e));
  }
  EXPECT_GT(table.accesses_per_lookup(), 1.0);  // log2(200) ~ 7.6
  EXPECT_LT(table.memory_bytes(),
            DirectAccessTable<double>(elt).memory_bytes());
}

TEST(HashLossTable, MatchesEltLookup) {
  const Elt elt = random_elt(5000, 200, 4);
  const HashLossTable table(elt);
  for (EventId e = 1; e <= 5000; e += 3) {
    EXPECT_DOUBLE_EQ(table.lookup(e), elt.lookup(e));
  }
}

TEST(HashLossTable, RobinHoodBoundsProbeLength) {
  const Elt elt = random_elt(100000, 5000, 5);
  const HashLossTable table(elt);
  // At <= 50% load factor, robin-hood linear probing keeps the mean
  // probe length around 0.5.
  EXPECT_LT(table.mean_probe_length(), 2.0);
}

TEST(CompressedLossTable, MatchesEltLookup) {
  const Elt elt = random_elt(5000, 200, 6);
  const CompressedLossTable table(elt);
  for (EventId e = 1; e <= 5000; ++e) {
    EXPECT_DOUBLE_EQ(table.lookup(e), elt.lookup(e)) << "event " << e;
  }
}

TEST(CompressedLossTable, UsesFarLessMemoryThanDirect) {
  const Elt elt = random_elt(2000000 / 10, 20000 / 10, 7);
  const CompressedLossTable compressed(elt);
  const DirectAccessTable<double> direct(elt);
  // Bitmap+rank: ~1/8 byte per catalogue slot + 8 B per record, versus
  // 8 B per slot — over an order of magnitude smaller at 1% density.
  EXPECT_LT(compressed.memory_bytes() * 10, direct.memory_bytes());
}

// Property: every lookup structure agrees with the canonical ELT on
// present keys, absent keys, and boundary ids.
class LookupAgreementProperty : public ::testing::TestWithParam<LookupKind> {};

TEST_P(LookupAgreementProperty, AgreesWithBinarySearchOracle) {
  const Elt elt = random_elt(20000, 1500, 99);
  const std::unique_ptr<LossLookup> table = make_lookup(GetParam(), elt);
  synth::Xoshiro256StarStar rng(123);
  const double tol = GetParam() == LookupKind::kDirectAccess32 ? 1e-3 : 0.0;
  for (int i = 0; i < 5000; ++i) {
    const EventId e = 1 + static_cast<EventId>(rng.next_below(20000));
    const double expect = elt.lookup(e);
    EXPECT_NEAR(table->lookup(e), expect, tol * (1.0 + expect));
  }
  // Boundary ids.
  EXPECT_NEAR(table->lookup(1), elt.lookup(1), tol * 1e3);
  EXPECT_NEAR(table->lookup(20000), elt.lookup(20000), tol * 1e3);
  EXPECT_GT(table->memory_bytes(), 0u);
  EXPECT_GE(table->accesses_per_lookup(), 1.0);
  EXPECT_FALSE(table->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, LookupAgreementProperty,
    ::testing::Values(LookupKind::kDirectAccess64, LookupKind::kDirectAccess32,
                      LookupKind::kSorted, LookupKind::kHash,
                      LookupKind::kCuckoo, LookupKind::kCompressed));

TEST(CuckooLossTable, MatchesEltLookup) {
  const Elt elt = random_elt(5000, 400, 21);
  const CuckooLossTable table(elt);
  for (EventId e = 1; e <= 5000; ++e) {
    EXPECT_DOUBLE_EQ(table.lookup(e), elt.lookup(e)) << "event " << e;
  }
}

TEST(CuckooLossTable, AtMostTwoProbesByConstruction) {
  const Elt elt = random_elt(100000, 8000, 22);
  const CuckooLossTable table(elt);
  EXPECT_DOUBLE_EQ(table.accesses_per_lookup(), 2.0);
  // Space: two half-loaded tables — well under the direct table.
  EXPECT_LT(table.memory_bytes(),
            DirectAccessTable<double>(elt).memory_bytes());
}

TEST(CuckooLossTable, HandlesAdversarialSizes) {
  // Tiny, one-record and near-power-of-two record counts.
  for (std::size_t n : {1u, 2u, 3u, 15u, 16u, 17u, 255u, 256u, 257u}) {
    const Elt elt = random_elt(4096, n, 1000 + n);
    const CuckooLossTable table(elt);
    for (const EventLoss& r : elt.records()) {
      ASSERT_DOUBLE_EQ(table.lookup(r.event), r.loss) << "n=" << n;
    }
  }
}

TEST(CuckooLossTable, EmptyEltAlwaysMisses) {
  const Elt elt({}, FinancialTerms::identity(), 100);
  const CuckooLossTable table(elt);
  for (EventId e = 1; e <= 100; ++e) {
    EXPECT_DOUBLE_EQ(table.lookup(e), 0.0);
  }
}

// The paper's trade-off: direct access is the fewest accesses per
// lookup; compact structures cost more accesses but less memory.
TEST(LookupTradeoff, DirectAccessFewestAccessesMostMemory) {
  const Elt elt = random_elt(200000, 2000, 42);
  const auto direct = make_lookup(LookupKind::kDirectAccess64, elt);
  const auto sorted = make_lookup(LookupKind::kSorted, elt);
  const auto hash = make_lookup(LookupKind::kHash, elt);
  const auto compressed = make_lookup(LookupKind::kCompressed, elt);
  EXPECT_LT(direct->accesses_per_lookup(), sorted->accesses_per_lookup());
  EXPECT_LE(direct->accesses_per_lookup(), hash->accesses_per_lookup());
  EXPECT_LT(direct->accesses_per_lookup(), compressed->accesses_per_lookup());
  EXPECT_GT(direct->memory_bytes(), sorted->memory_bytes());
  EXPECT_GT(direct->memory_bytes(), hash->memory_bytes());
  EXPECT_GT(direct->memory_bytes(), compressed->memory_bytes());
}

}  // namespace
}  // namespace ara
