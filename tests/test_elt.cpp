#include "core/elt.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace ara {
namespace {

Elt make_simple() {
  return Elt({{5, 100.0}, {2, 50.0}, {9, 75.0}}, FinancialTerms::identity(),
             10);
}

TEST(Elt, SortsRecordsByEventId) {
  const Elt elt = make_simple();
  ASSERT_EQ(elt.size(), 3u);
  EXPECT_EQ(elt.records()[0].event, 2u);
  EXPECT_EQ(elt.records()[1].event, 5u);
  EXPECT_EQ(elt.records()[2].event, 9u);
}

TEST(Elt, LookupFindsPresentEvents) {
  const Elt elt = make_simple();
  EXPECT_DOUBLE_EQ(elt.lookup(2), 50.0);
  EXPECT_DOUBLE_EQ(elt.lookup(5), 100.0);
  EXPECT_DOUBLE_EQ(elt.lookup(9), 75.0);
}

TEST(Elt, LookupReturnsZeroForAbsentEvents) {
  const Elt elt = make_simple();
  EXPECT_DOUBLE_EQ(elt.lookup(1), 0.0);
  EXPECT_DOUBLE_EQ(elt.lookup(3), 0.0);
  EXPECT_DOUBLE_EQ(elt.lookup(10), 0.0);
}

TEST(Elt, TotalLossSumsRecords) {
  EXPECT_DOUBLE_EQ(make_simple().total_loss(), 225.0);
}

TEST(Elt, EmptyTableIsLegal) {
  const Elt elt({}, FinancialTerms::identity(), 10);
  EXPECT_TRUE(elt.empty());
  EXPECT_DOUBLE_EQ(elt.lookup(5), 0.0);
  EXPECT_DOUBLE_EQ(elt.total_loss(), 0.0);
}

TEST(Elt, RejectsZeroCatalogue) {
  EXPECT_THROW(Elt({{1, 1.0}}, FinancialTerms::identity(), 0),
               std::invalid_argument);
}

TEST(Elt, RejectsEventIdZero) {
  EXPECT_THROW(Elt({{0, 1.0}}, FinancialTerms::identity(), 10),
               std::invalid_argument);
}

TEST(Elt, RejectsEventBeyondCatalogue) {
  EXPECT_THROW(Elt({{11, 1.0}}, FinancialTerms::identity(), 10),
               std::invalid_argument);
}

TEST(Elt, RejectsDuplicateEvents) {
  EXPECT_THROW(Elt({{3, 1.0}, {3, 2.0}}, FinancialTerms::identity(), 10),
               std::invalid_argument);
}

TEST(Elt, RejectsNegativeLoss) {
  EXPECT_THROW(Elt({{3, -1.0}}, FinancialTerms::identity(), 10),
               std::invalid_argument);
}

// An infinite loss would turn a later +0.0 step of its layer into
// inf - inf = NaN, so skipping uncovered occurrences would not be exact.
TEST(Elt, RejectsNonFiniteLoss) {
  EXPECT_THROW(Elt({{3, std::numeric_limits<double>::infinity()}},
                   FinancialTerms::identity(), 10),
               std::invalid_argument);
  EXPECT_THROW(Elt({{3, std::numeric_limits<double>::quiet_NaN()}},
                   FinancialTerms::identity(), 10),
               std::invalid_argument);
}

TEST(Elt, RejectsInvalidFinancialTerms) {
  FinancialTerms bad;
  bad.share = 2.0;
  EXPECT_THROW(Elt({{3, 1.0}}, bad, 10), std::invalid_argument);
}

TEST(Elt, BoundaryEventIdsAccepted) {
  const Elt elt({{1, 5.0}, {10, 6.0}}, FinancialTerms::identity(), 10);
  EXPECT_DOUBLE_EQ(elt.lookup(1), 5.0);
  EXPECT_DOUBLE_EQ(elt.lookup(10), 6.0);
}

TEST(Elt, KeepsZeroLossRecords) {
  const Elt elt({{4, 0.0}}, FinancialTerms::identity(), 10);
  EXPECT_EQ(elt.size(), 1u);
  EXPECT_DOUBLE_EQ(elt.lookup(4), 0.0);
}

}  // namespace
}  // namespace ara
