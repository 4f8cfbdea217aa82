// Direct unit tests of the per-trial operand sequence — aggregate_step
// driven by the kScalar sweep, the routine every engine's inner loop
// is built from — and of the layer-event table it reads.
#include "core/trial_math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/lookup_table.hpp"
#include "core/simd/bound_portfolio.hpp"
#include "core/simd/kernels.hpp"
#include "four_pass_reference.hpp"

namespace ara {
namespace {

template <typename Real>
struct Outcome {
  Real annual = Real(0);
  Real max_occurrence = Real(0);
};

// One trial through the dispatched kScalar sweep over the portfolio's
// binding; one outcome per layer.
template <typename Real>
std::vector<Outcome<Real>> sweep(const Portfolio& portfolio,
                                 const TableStore<Real>& store,
                                 std::span<const EventOccurrence> trial) {
  const simd::BoundPortfolio<Real> bp = simd::bind_portfolio(portfolio, store);
  simd::PortfolioTrialState<Real> state(bp);
  simd::select_kernel<Real>(simd::SimdPolicy::kScalar).sweep(bp, trial, state);
  std::vector<Outcome<Real>> out(bp.layers);
  for (std::size_t a = 0; a < bp.layers; ++a) {
    out[a] = {state.annual[a], state.max_occurrence[a]};
  }
  return out;
}

// Layer a's pre-occurrence-terms loss for event e: cell (e, a) of the
// event-major rows.
template <typename Real>
Real cell(const TableStore<Real>& store, EventId e, std::size_t a) {
  return store.data()[static_cast<std::size_t>(e) * store.width + a];
}

struct Fixture {
  Portfolio portfolio;
  TableStore<double> tables;

  explicit Fixture(LayerTerms lt, FinancialTerms ft = {})
      : portfolio(make_portfolio(lt, ft)),
        tables(build_tables<double>(portfolio)) {}

  static Portfolio make_portfolio(LayerTerms lt, FinancialTerms ft) {
    std::vector<Elt> elts;
    elts.emplace_back(
        std::vector<EventLoss>{{1, 100.0}, {2, 200.0}, {3, 300.0}}, ft, 10);
    elts.emplace_back(std::vector<EventLoss>{{2, 50.0}, {4, 400.0}}, ft, 10);
    return Portfolio(std::move(elts), {Layer{"L", {0, 1}, lt}});
  }

  Outcome<double> run(const std::vector<EventOccurrence>& events) {
    return sweep<double>(portfolio, tables,
                         std::span<const EventOccurrence>(events))[0];
  }
};

TEST(TrialMath, EmptyTrialZeroOutcome) {
  Fixture f(LayerTerms::identity());
  const auto out = f.run({});
  EXPECT_DOUBLE_EQ(out.annual, 0.0);
  EXPECT_DOUBLE_EQ(out.max_occurrence, 0.0);
}

TEST(TrialMath, SumsAcrossEltsPerEvent) {
  Fixture f(LayerTerms::identity());
  // event 2 is in both ELTs: 200 + 50.
  const auto out = f.run({{2, 1}});
  EXPECT_DOUBLE_EQ(out.annual, 250.0);
  EXPECT_DOUBLE_EQ(out.max_occurrence, 250.0);
}

TEST(TrialMath, UnknownEventContributesZero) {
  Fixture f(LayerTerms::identity());
  const auto out = f.run({{9, 1}, {10, 2}});
  EXPECT_DOUBLE_EQ(out.annual, 0.0);
}

TEST(TrialMath, MaxOccurrenceTracksLargestClampedEvent) {
  LayerTerms lt;
  lt.occ_limit = 260.0;
  Fixture f(lt);
  const auto out = f.run({{1, 1}, {4, 2}, {2, 3}});
  // events: 100, 400->260 (clamped), 250. Max clamped = 260.
  EXPECT_DOUBLE_EQ(out.max_occurrence, 260.0);
  EXPECT_DOUBLE_EQ(out.annual, 100.0 + 260.0 + 250.0);
}

TEST(TrialMath, AggregateTermsTelescopeToClampedTotal) {
  LayerTerms lt;
  lt.agg_retention = 150.0;
  lt.agg_limit = 400.0;
  Fixture f(lt);
  const auto out = f.run({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  // Occurrence losses: 100, 250, 300, 400; total 1050.
  // Annual = clamp(1050 - 150, 0, 400) = 400.
  EXPECT_DOUBLE_EQ(out.annual, 400.0);
}

TEST(TrialMath, FinancialTermsAppliedBeforeCombining) {
  FinancialTerms ft;
  ft.retention = 150.0;
  Fixture f(LayerTerms::identity(), ft);
  // event 2: ELT1 200-150=50; ELT2 50-150 -> 0. Combined 50 (not
  // (200+50)-150=100, which would be applying terms after combining).
  const auto out = f.run({{2, 1}});
  EXPECT_DOUBLE_EQ(out.annual, 50.0);
}

TEST(TrialMath, FloatInstantiationTracksDouble) {
  LayerTerms lt;
  lt.occ_retention = 10.0;
  lt.agg_limit = 500.0;
  std::vector<Elt> elts;
  FinancialTerms ft;
  ft.share = 0.7;
  elts.emplace_back(std::vector<EventLoss>{{1, 123.456}, {2, 654.321}}, ft,
                    10);
  Portfolio p(std::move(elts), {Layer{"L", {0}, lt}});
  const TableStore<double> td = build_tables<double>(p);
  const TableStore<float> tf = build_tables<float>(p);
  const std::vector<EventOccurrence> trial = {{1, 1}, {2, 2}, {1, 3}};
  const auto d =
      sweep<double>(p, td, std::span<const EventOccurrence>(trial))[0];
  const auto f =
      sweep<float>(p, tf, std::span<const EventOccurrence>(trial))[0];
  EXPECT_NEAR(static_cast<double>(f.annual), d.annual,
              1e-4 * (1.0 + d.annual));
}

TEST(TrialMath, BindingReadsTheLayerColumn) {
  Fixture f(LayerTerms::identity());
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(f.portfolio, f.tables);
  ASSERT_EQ(bp.layers, 1u);
  EXPECT_EQ(bp.rows, f.tables.data());
  EXPECT_DOUBLE_EQ(bp.row(1)[0], 100.0);
  EXPECT_DOUBLE_EQ(bp.row(2)[0], 250.0);  // 200 + 50, summed at build
  EXPECT_DOUBLE_EQ(bp.row(4)[0], 400.0);
}

// One column per layer, each holding its own ELTs' sum.
TEST(TrialMath, TableStorePerLayerShapes) {
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 1.0}},
                    FinancialTerms::identity(), 10);
  elts.emplace_back(std::vector<EventLoss>{{2, 2.0}},
                    FinancialTerms::identity(), 10);
  Portfolio p(std::move(elts),
              {Layer{"a", {0}, LayerTerms::identity()},
               Layer{"b", {0, 1}, LayerTerms::identity()}});
  const TableStore<double> store = build_tables<double>(p);
  ASSERT_EQ(store.width, 2u);
  EXPECT_EQ(cell(store, 1, 0), 1.0);
  EXPECT_EQ(cell(store, 1, 1), 1.0);
  EXPECT_EQ(cell(store, 2, 0), 0.0);
  EXPECT_EQ(cell(store, 2, 1), 2.0);
}

// Layers sharing an ELT each carry its loss in their own column, in
// whatever slot order they list it; an ELT no layer references adds
// neither a loss nor coverage.
TEST(TrialMath, TableStoreDeduplicatesSharedElts) {
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 1.0}},
                    FinancialTerms::identity(), 10);
  elts.emplace_back(std::vector<EventLoss>{{2, 2.0}},
                    FinancialTerms::identity(), 10);
  elts.emplace_back(std::vector<EventLoss>{{3, 3.0}},
                    FinancialTerms::identity(), 10);
  Portfolio p(std::move(elts),
              {Layer{"a", {0, 1}, LayerTerms::identity()},
               Layer{"b", {1, 0}, LayerTerms::identity()},
               Layer{"c", {0, 1}, LayerTerms::identity()}});
  const TableStore<double> store = build_tables<double>(p);
  EXPECT_EQ(store.width, 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(cell(store, 1, a), 1.0) << "layer " << a;
    EXPECT_EQ(cell(store, 2, a), 2.0) << "layer " << a;
    EXPECT_EQ(cell(store, 3, a), 0.0) << "layer " << a;
  }
  EXPECT_TRUE(store.covers(1));
  EXPECT_TRUE(store.covers(2));
  EXPECT_FALSE(store.covers(3));
}

// A moved-from-into store keeps its rows, and every binding of them,
// valid (the session cache moves stores into shared_ptr-held slots).
TEST(TrialMath, TableStoreSurvivesMove) {
  Fixture f(LayerTerms::identity());
  TableStore<double> store = build_tables<double>(f.portfolio);
  const double* rows = store.data();
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(f.portfolio, store);
  const TableStore<double> moved = std::move(store);
  EXPECT_EQ(moved.data(), rows);
  EXPECT_EQ(store.data(), nullptr);
  EXPECT_DOUBLE_EQ(cell(moved, 1, 0), 100.0);
  EXPECT_DOUBLE_EQ(cell(moved, 4, 0), 400.0);
  EXPECT_DOUBLE_EQ(bp.row(2)[0], 250.0);
}

// --- the layer-event table wall --------------------------------------

// Every corner of the sparse build: layers sharing ELTs in either slot
// order, an ELT listed twice in one layer, a zero-share ELT under an
// unlimited cover, a retention above every loss (covered cells of
// +0.0), a record of loss 0, events on both sides of the coverage
// bitmap's word boundaries up to the catalogue's last id, and more
// layers (6) than distinct ELTs (4).
constexpr EventId kWallCatalogue = 130;

Portfolio table_wall_portfolio() {
  FinancialTerms scaled;
  scaled.fx_rate = 1.1;
  scaled.retention = 5.0;
  scaled.limit = 900.0;
  scaled.share = 0.8;
  FinancialTerms no_share;  // limit stays +inf
  no_share.share = 0.0;
  FinancialTerms deep;
  deep.retention = 1e9;  // above every loss
  std::vector<Elt> elts;
  elts.emplace_back(
      std::vector<EventLoss>{{1, 123.456}, {17, 0.3}, {40, 0.0},
                             {63, 977.7}, {64, 5.01}, {65, 1234.5678},
                             {kWallCatalogue, 41.3}},
      scaled, kWallCatalogue);
  elts.emplace_back(std::vector<EventLoss>{{1, 70.0}, {64, 3.25}, {100, 9.0}},
                    no_share, kWallCatalogue);
  elts.emplace_back(std::vector<EventLoss>{{63, 1e6}, {65, 2.5}, {90, 77.0}},
                    deep, kWallCatalogue);
  elts.emplace_back(
      std::vector<EventLoss>{{2, 0.1}, {64, 1.0 / 3.0}, {kWallCatalogue, 1e-7}},
      FinancialTerms::identity(), kWallCatalogue);
  return Portfolio(std::move(elts),
                   {Layer{"both", {0, 3}, LayerTerms::identity()},
                    Layer{"reversed", {3, 0}, LayerTerms::identity()},
                    Layer{"twice", {0, 0}, LayerTerms::identity()},
                    Layer{"no share", {1}, LayerTerms::identity()},
                    Layer{"deep", {2}, LayerTerms::identity()},
                    Layer{"mixed", {2, 1, 3}, LayerTerms::identity()}});
}

template <typename Real>
auto bits(Real x) {
  if constexpr (sizeof(Real) == 4) {
    return std::bit_cast<std::uint32_t>(x);
  } else {
    return std::bit_cast<std::uint64_t>(x);
  }
}

// The oracle: each slot's loss looked up in its own DirectAccessTable,
// its terms applied, summed in slot order from +0.0 — Algorithm 1's
// lines 5-13 over dense per-ELT tables, sharing nothing with
// build_tables.
template <typename Real>
void expect_cells_equal_dense_slot_sums(const Portfolio& p) {
  const std::string what = sizeof(Real) == 4 ? "f32" : "f64";
  const TableStore<Real> store = build_tables<Real>(p);
  const std::size_t events = static_cast<std::size_t>(p.catalogue_size()) + 1;
  ASSERT_EQ(store.events, events) << what;
  ASSERT_EQ(store.width, p.layer_count()) << what;
  // The documented bound: (catalogue + 1) x layers x sizeof(Real),
  // here above the per-ELT layout's (catalogue + 1) x 4 distinct ELTs.
  EXPECT_EQ(store.bytes(), events * p.layer_count() * sizeof(Real)) << what;
  EXPECT_GT(store.bytes(), events * p.elt_count() * sizeof(Real)) << what;
  ASSERT_EQ(store.covered.size(), (events + 63) / 64) << what;

  std::vector<DirectAccessTable<Real>> dense;
  dense.reserve(p.elt_count());
  for (const Elt& elt : p.elts()) dense.emplace_back(elt);
  for (EventId e = 0; e <= p.catalogue_size(); ++e) {
    bool recorded = false;
    for (const Elt& elt : p.elts()) {
      for (const EventLoss& r : elt.records()) recorded |= r.event == e;
    }
    EXPECT_EQ(store.covers(e), recorded) << what << " event " << e;
    for (std::size_t a = 0; a < p.layer_count(); ++a) {
      Real sum = Real(0);
      for (const std::size_t idx : p.layers()[a].elt_indices) {
        sum += apply_financial_terms(dense[idx].at(e), p.elts()[idx].terms());
      }
      EXPECT_EQ(bits(cell(store, e, a)), bits(sum))
          << what << " event " << e << " layer " << a;
    }
  }
}

TEST(LayerEventTable, EveryCellIsTheDenseSlotOrderSum) {
  const Portfolio p = table_wall_portfolio();
  expect_cells_equal_dense_slot_sums<double>(p);
  expect_cells_equal_dense_slot_sums<float>(p);
}

// The corners the wall's book was built for, stated directly.
TEST(LayerEventTable, CornerCellsHoldTheirDocumentedValues) {
  const Portfolio p = table_wall_portfolio();
  const TableStore<double> store = build_tables<double>(p);
  const auto positive_zero = [](double x) { return bits(x) == 0; };
  // The zero-share ELT under an unlimited cover: exactly +0.0.
  EXPECT_TRUE(positive_zero(cell(store, 1, 3)));
  EXPECT_TRUE(store.covers(100));
  EXPECT_TRUE(positive_zero(cell(store, 100, 3)));
  // Retention above every loss: covered, and +0.0.
  for (const EventId e : {63u, 65u, 90u}) {
    EXPECT_TRUE(store.covers(e)) << e;
    EXPECT_TRUE(positive_zero(cell(store, e, 4))) << e;
  }
  // A record of loss 0 still marks its event covered.
  EXPECT_TRUE(store.covers(40));
  EXPECT_TRUE(positive_zero(cell(store, 40, 0)));
  // An ELT listed twice counts twice: 2 x 0.8 * (1.1 * 123.456 - 5).
  const double once = apply_financial_terms(123.456, p.elts()[0].terms());
  EXPECT_EQ(cell(store, 1, 2), once + once);
  // Word boundaries of the bitmap and the last event id.
  for (const EventId e : {1u, 63u, 64u, 65u, kWallCatalogue}) {
    EXPECT_TRUE(store.covers(e)) << e;
  }
  EXPECT_FALSE(store.covers(0));
  EXPECT_FALSE(store.covers(66));
  EXPECT_FALSE(store.covers(kWallCatalogue - 1));
}

TEST(TrialMath, EventAbsentFromEltReadsZero) {
  Fixture f(LayerTerms::identity());
  EXPECT_EQ(cell(f.tables, 3, 0), 300.0);  // only in ELT 0
  EXPECT_EQ(cell(f.tables, 4, 0), 400.0);  // only in ELT 1
  EXPECT_EQ(cell(f.tables, 0, 0), 0.0);    // the unused id-0 row
  EXPECT_EQ(cell(f.tables, 10, 0), 0.0);   // last catalogue event
}

// Just over simd::kHugePageMinBytes: the rows start on a 2 MiB
// boundary (the huge-page allocation) and still hold the right values.
TEST(TrialMath, LargeTableIsHugePageAligned) {
  constexpr EventId kCatalogue = EventId{1} << 22;  // 2 x (4Mi + 1) x 8 B
  std::vector<Elt> elts;
  elts.emplace_back(std::vector<EventLoss>{{1, 11.0}, {kCatalogue, 12.0}},
                    FinancialTerms::identity(), kCatalogue);
  elts.emplace_back(std::vector<EventLoss>{{2, 21.0}, {kCatalogue, 22.0}},
                    FinancialTerms::identity(), kCatalogue);
  const Portfolio p(std::move(elts),
                    {Layer{"first", {0}, LayerTerms::identity()},
                     Layer{"second", {1}, LayerTerms::identity()}});
  const TableStore<double> store = build_tables<double>(p);
  ASSERT_GT(store.bytes(), simd::kHugePageMinBytes);
  ASSERT_LT(store.bytes(), simd::kHugePageMinBytes + 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(store.data()) %
                simd::kHugePageBytes,
            0u);
  EXPECT_EQ(cell(store, 1, 0), 11.0);
  EXPECT_EQ(cell(store, 2, 0), 0.0);
  EXPECT_EQ(cell(store, 2, 1), 21.0);
  EXPECT_EQ(cell(store, kCatalogue, 0), 12.0);
  EXPECT_EQ(cell(store, kCatalogue, 1), 22.0);
  EXPECT_EQ(cell(store, kCatalogue - 1, 1), 0.0);
}

// Below the huge-page line the rows are cache-line aligned.
TEST(TrialMath, SmallTableIsCacheLineAligned) {
  Fixture f(LayerTerms::identity());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.tables.data()) %
                simd::kCacheLineBytes,
            0u);
}

// The trial-major multilayer sweep must be bitwise identical, layer by
// layer, to sweeping each layer on its own (the one-layer path keeps
// its running state in locals) and to the four-pass reference —
// including shared ELTs, clamping terms, and both precisions.
template <typename Real>
void expect_multilayer_matches_fused(const Portfolio& p,
                                     const std::vector<EventOccurrence>& trial) {
  const TableStore<Real> store = build_tables<Real>(p);
  const auto all =
      sweep<Real>(p, store, std::span<const EventOccurrence>(trial));
  const Ylt expect =
      four_pass_ylt<Real>(p, Yet({trial}, p.catalogue_size()));
  for (std::size_t a = 0; a < p.layer_count(); ++a) {
    const Portfolio alone(p.elts(), {p.layers()[a]});
    const Outcome<Real> fused = sweep<Real>(
        alone, build_tables<Real>(alone),
        std::span<const EventOccurrence>(trial))[0];
    ASSERT_EQ(all[a].annual, fused.annual) << "layer " << a;
    ASSERT_EQ(all[a].max_occurrence, fused.max_occurrence) << "layer " << a;
    ASSERT_EQ(static_cast<double>(all[a].annual), expect.annual_loss(a, 0))
        << "layer " << a;
    ASSERT_EQ(static_cast<double>(all[a].max_occurrence),
              expect.max_occurrence_loss(a, 0))
        << "layer " << a;
  }
}

TEST(TrialMath, MultilayerBitwiseMatchesPerLayerFused) {
  std::vector<Elt> elts;
  FinancialTerms ft;
  ft.retention = 30.0;
  ft.share = 0.8;
  elts.emplace_back(
      std::vector<EventLoss>{{1, 100.0}, {2, 200.0}, {3, 300.0}}, ft, 10);
  elts.emplace_back(std::vector<EventLoss>{{2, 50.0}, {4, 400.0}}, ft, 10);
  elts.emplace_back(std::vector<EventLoss>{{5, 750.0}, {1, 20.0}}, ft, 10);
  LayerTerms occ_capped;
  occ_capped.occ_limit = 260.0;
  LayerTerms agg_capped;
  agg_capped.agg_retention = 100.0;
  agg_capped.agg_limit = 500.0;
  Portfolio p(std::move(elts),
              {Layer{"full", {0, 1, 2}, LayerTerms::identity()},
               Layer{"occ", {1, 0}, occ_capped},
               Layer{"agg", {2}, agg_capped}});
  const std::vector<EventOccurrence> trial = {{1, 1}, {4, 2}, {2, 3},
                                              {5, 4}, {9, 5}, {1, 6}};
  expect_multilayer_matches_fused<double>(p, trial);
  expect_multilayer_matches_fused<float>(p, trial);
}

TEST(TrialMath, MultilayerEmptyTrialAndStateReset) {
  Fixture f(LayerTerms::identity());
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(f.portfolio, f.tables);
  simd::PortfolioTrialState<double> state(bp);
  // Dirty state must be reset on entry.
  state.cumulative[0] = 123.0;
  state.annual[0] = 456.0;
  simd::select_kernel<double>(simd::SimdPolicy::kScalar)
      .sweep(bp, std::span<const EventOccurrence>{}, state);
  EXPECT_DOUBLE_EQ(state.annual[0], 0.0);
  EXPECT_DOUBLE_EQ(state.max_occurrence[0], 0.0);
}

}  // namespace
}  // namespace ara
