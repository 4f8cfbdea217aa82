// Direct unit tests of the per-trial operand sequence — elt_sum +
// aggregate_step driven by the kScalar sweep, the routine every
// engine's inner loop is built from — and of the event-major loss
// tables it reads.
#include "core/trial_math.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

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

// Event e's loss in column c of the event-major rows.
template <typename Real>
Real cell(const TableStore<Real>& store, EventId e, std::size_t c) {
  return store.data()[static_cast<std::size_t>(e) * store.width + c];
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

TEST(TrialMath, BindingResolvesLayerOrder) {
  Fixture f(LayerTerms::identity());
  const simd::BoundPortfolio<double> bp =
      simd::bind_portfolio(f.portfolio, f.tables);
  EXPECT_EQ(bp.elt_end[0] - bp.elt_begin[0], 2u);
  EXPECT_DOUBLE_EQ(bp.table_base[0][1 * bp.row_stride], 100.0);
  EXPECT_DOUBLE_EQ(bp.table_base[1][4 * bp.row_stride], 400.0);
}

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
  ASSERT_EQ(store.per_layer.size(), 2u);
  EXPECT_EQ(store.per_layer[0].size(), 1u);
  EXPECT_EQ(store.per_layer[1].size(), 2u);
}

// Layers sharing an ELT must share one column, not get one per
// (layer, ELT) pair — the per-run allocation churn the session cache
// exists to amortise.
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
  // ELT 2 is unreferenced; only two columns materialise for 6 slots,
  // numbered in first-reference order.
  EXPECT_EQ(store.width, 2u);
  const std::vector<std::vector<std::size_t>> want = {{0, 1}, {1, 0}, {0, 1}};
  EXPECT_EQ(store.per_layer, want);
  EXPECT_DOUBLE_EQ(cell(store, 2, store.per_layer[1][0]), 2.0);
  EXPECT_DOUBLE_EQ(cell(store, 1, store.per_layer[1][1]), 1.0);
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
  EXPECT_DOUBLE_EQ(cell(moved, 1, moved.per_layer[0][0]), 100.0);
  EXPECT_DOUBLE_EQ(cell(moved, 4, moved.per_layer[0][1]), 400.0);
  EXPECT_DOUBLE_EQ(bp.table_base[1][2 * bp.row_stride], 50.0);
}

// Three ELTs referenced out of index order by two layers, one ELT
// shared: columns follow first reference (ELT 2, 0, 1), and every
// record of every ELT sits at (event, column), in both precisions.
Portfolio scattered_portfolio() {
  constexpr EventId kCatalogue = 97;
  std::vector<Elt> elts;
  for (EventId k = 0; k < 3; ++k) {
    std::vector<EventLoss> records;
    for (EventId e = 1; e <= kCatalogue; ++e) {
      if ((e + k) % (3 + k) == 0 || e == kCatalogue) {
        records.push_back({e, 1000.0 * (k + 1) + e + 0.25});
      }
    }
    elts.emplace_back(std::move(records), FinancialTerms::identity(),
                      kCatalogue);
  }
  return Portfolio(std::move(elts),
                   {Layer{"a", {2, 0}, LayerTerms::identity()},
                    Layer{"b", {1, 2}, LayerTerms::identity()}});
}

template <typename Real>
void expect_every_record_at_its_cell(const Portfolio& p) {
  const TableStore<Real> store = build_tables<Real>(p);
  const std::vector<std::vector<std::size_t>> want = {{0, 1}, {2, 0}};
  ASSERT_EQ(store.per_layer, want);
  ASSERT_EQ(store.width, 3u);
  ASSERT_EQ(store.events, static_cast<std::size_t>(p.catalogue_size()) + 1);
  ASSERT_EQ(store.slots(), 3u * (p.catalogue_size() + 1u));
  const std::size_t column_of_elt[] = {1, 2, 0};
  for (std::size_t k = 0; k < p.elt_count(); ++k) {
    const Elt& elt = p.elts()[k];
    const std::size_t c = column_of_elt[k];
    for (const EventLoss& r : elt.records()) {
      EXPECT_EQ(store.data()[r.event * store.width + c],
                static_cast<Real>(r.loss))
          << "ELT " << k << " event " << r.event;
    }
    // Every event, present or absent (0).
    for (EventId e = 0; e <= p.catalogue_size(); ++e) {
      EXPECT_EQ(cell(store, e, c), static_cast<Real>(elt.lookup(e)))
          << "ELT " << k << " event " << e;
    }
  }
}

TEST(TrialMath, EventMajorRowsHoldEveryRecordAtItsColumn) {
  const Portfolio p = scattered_portfolio();
  expect_every_record_at_its_cell<double>(p);
  expect_every_record_at_its_cell<float>(p);
}

TEST(TrialMath, EventAbsentFromEltReadsZero) {
  Fixture f(LayerTerms::identity());
  EXPECT_EQ(cell(f.tables, 4, 0), 0.0);   // only in ELT 1
  EXPECT_EQ(cell(f.tables, 1, 1), 0.0);   // only in ELT 0
  EXPECT_EQ(cell(f.tables, 0, 0), 0.0);   // the unused id-0 row
  EXPECT_EQ(cell(f.tables, 10, 1), 0.0);  // last catalogue event
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
                    {Layer{"L", {0, 1}, LayerTerms::identity()}});
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
