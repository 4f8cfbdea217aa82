// The streamed-metrics identity wall (DESIGN.md §6): a metric-only
// (YltRetention::kDiscard) sharded run must answer a MetricsSpec with
// the same numbers as computing from the monolithic YLT — bitwise, the
// order-statistic family (VaR/TVaR/PML/OEP/EP-curve/max, whose
// reduction order is pinned) and the mean family (AAL/stddev, whose
// exact sums have no order) alike — for every engine kind and shard
// size, while never materializing the layers x trials table (asserted
// by block accounting). Plus the kSpillToFile round trip: the spilled
// file is byte-identical to saving the monolithic table, and
// re-reducing it block by block through YltChunkReader reproduces the
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics/portfolio_rollup.hpp"
#include "core/metrics/risk_measures.hpp"
#include "core/metrics/streaming.hpp"
#include "core/session.hpp"
#include "io/binary.hpp"
#include "io/yet_chunk.hpp"
#include "report_identity.hpp"
#include "synth/distributions.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

using testdata::expect_report_identical;

constexpr std::size_t kTrials = 26;

std::vector<std::size_t> shard_sizes(std::size_t trials) {
  return {1, 7, trials / 2, trials, trials + 1};
}

// The wall's spec: both scopes, several quantiles and return periods,
// an EP-curve tail, capital allocation.
MetricsSpec wall_spec() {
  MetricsSpec spec;
  spec.per_layer = true;
  spec.portfolio = true;
  spec.quantiles = {0.9, 0.99};
  spec.return_periods = {10.0, 100.0};
  spec.ep_curve_points = 5;
  spec.capital_allocation = true;
  return spec;
}

AnalysisRequest request_for(const Portfolio& portfolio, const Yet& yet) {
  AnalysisRequest request;
  request.portfolio = &portfolio;
  request.yet = &yet;
  request.metrics = wall_spec();
  return request;
}

// (a) The acceptance wall: all 6 engine kinds x shard sizes
// {1, 7, T/2, T, T+1}, kDiscard streamed vs monolithic kKeep.
TEST(StreamedMetrics, DiscardIdentityWallAllKindsAllShardSizes) {
  const synth::Scenario s = synth::tiny(kTrials, 29);
  AnalysisSession session;

  for (const EngineKind kind : all_engine_kinds()) {
    AnalysisRequest mono = request_for(s.portfolio, s.yet);
    mono.policy = ExecutionPolicy::with_engine(kind);
    const AnalysisResult reference = session.run(mono);
    ASSERT_FALSE(reference.metrics.empty());
    EXPECT_EQ(reference.metrics.blocks_consumed, 1u);
    EXPECT_EQ(reference.metrics.max_block_trials, kTrials);

    for (const std::size_t shard : shard_sizes(s.yet.trial_count())) {
      AnalysisRequest streamed = request_for(s.portfolio, s.yet);
      ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
      policy.shard_trials = shard;
      streamed.policy = policy;
      streamed.ylt_retention = YltRetention::kDiscard;
      const AnalysisResult result = session.run(streamed);

      const std::string what =
          engine_kind_name(kind) + "/shard=" + std::to_string(shard);
      expect_report_identical(result.metrics, reference.metrics, what);

      // A metric-only run hands back no table...
      EXPECT_EQ(result.simulation.ylt.trial_count(), 0u) << what;
      EXPECT_EQ(result.simulation.ylt.layer_count(), 0u) << what;
      // ...and, when sharded, never saw more than one shard at a time:
      // block accounting proves the full layers x trials table was
      // never assembled on the streamed path.
      if (shard < kTrials) {
        const std::size_t expect_shards = (kTrials + shard - 1) / shard;
        EXPECT_EQ(result.shard_count, expect_shards) << what;
        EXPECT_EQ(result.metrics.blocks_consumed, expect_shards) << what;
        EXPECT_LE(result.metrics.max_block_trials, shard) << what;
      }
      // The reservoirs hold the spec's tail, not the trial dimension.
      EXPECT_GT(result.metrics.reservoir_entries, 0u) << what;
    }
  }
}

// (a2) The mean family's own wall. Layer 0 is 2^53 followed by 1,000
// ones, which a left-to-right double sum drops one by one; layer 1 is
// seeded lognormal, and the portfolio adds the two. Monolithic, in
// blocks of {1, 7, T/2, T+1}, and with the blocks consumed in reverse
// trial order, every report is the same bits, and layer 0's AAL is its
// exact mean rounded once.
TEST(StreamedMetrics, MeanFamilyIsExactForEveryBlockPlan) {
  constexpr std::size_t kT = 1001;
  Ylt ylt(2, kT);
  synth::Xoshiro256StarStar rng(4242);
  synth::LognormalSampler lognormal =
      synth::LognormalSampler::from_mean_cv(1.0e6, 2.0);
  for (std::size_t t = 0; t < kT; ++t) {
    ylt.annual_loss(0, t) = t == 0 ? 0x1p53 : 1.0;
    ylt.annual_loss(1, t) = lognormal.sample(rng);
    for (std::size_t l = 0; l < 2; ++l) {
      ylt.max_occurrence_loss(l, t) = ylt.annual_loss(l, t);
    }
  }
  const std::vector<std::string> labels = {"absorbing", "lognormal"};

  const metrics::MetricsReport mono =
      metrics::compute_metrics(ylt, labels, wall_spec());
  EXPECT_EQ(mono.layers[0].aal, (0x1p53 + 1000.0) / 1001.0);

  const auto rows = [&](std::size_t begin, std::size_t end) {
    Ylt block(2, end - begin);
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t t = begin; t < end; ++t) {
        block.annual_loss(l, t - begin) = ylt.annual_loss(l, t);
        block.max_occurrence_loss(l, t - begin) = ylt.max_occurrence_loss(l, t);
      }
    }
    return block;
  };
  for (const std::size_t size : {std::size_t{1}, std::size_t{7}, kT / 2,
                                 kT + 1}) {
    for (const bool reversed : {false, true}) {
      std::vector<std::size_t> begins;
      for (std::size_t b = 0; b < kT; b += size) begins.push_back(b);
      if (reversed) std::reverse(begins.begin(), begins.end());
      metrics::StreamingMetricsReducer reducer(labels, kT, wall_spec());
      for (const std::size_t b : begins) {
        reducer.consume(rows(b, std::min(b + size, kT)), b);
      }
      expect_report_identical(reducer.finish(), mono,
                              "block=" + std::to_string(size) +
                                  (reversed ? "/reversed" : ""));
    }
  }
}

// (b) kSpillToFile: byte-identical file, plus the round trip — reload
// through YltChunkReader block by block, re-reduce, same metrics.
TEST(StreamedMetrics, SpillToFileRoundTrip) {
  const synth::Scenario s = synth::multi_layer_book(4, 300, 41);
  AnalysisSession session;

  const std::string dir = ::testing::TempDir();
  const std::string mono_path = dir + "/ara_mono_ylt.bin";
  const std::string spill_path = dir + "/ara_spill_ylt.bin";

  AnalysisRequest mono = request_for(s.portfolio, s.yet);
  mono.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  const AnalysisResult reference = session.run(mono);
  io::save_ylt(mono_path, reference.simulation.ylt);

  AnalysisRequest spill = request_for(s.portfolio, s.yet);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  policy.shard_trials = 37;  // does not divide 300
  spill.policy = policy;
  spill.ylt_retention = YltRetention::kSpillToFile;
  spill.ylt_path = spill_path;
  const AnalysisResult spilled = session.run(spill);

  EXPECT_EQ(spilled.ylt_path, spill_path);
  EXPECT_EQ(spilled.simulation.ylt.trial_count(), 0u);
  expect_report_identical(spilled.metrics, reference.metrics, "spill");

  // Byte-identical to saving the monolithic table.
  const auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const std::string mono_bytes = slurp(mono_path);
  ASSERT_FALSE(mono_bytes.empty());
  EXPECT_EQ(slurp(spill_path), mono_bytes);

  // Round trip 1: whole-file reload, monolithic recompute.
  const Ylt reloaded = io::load_ylt(spill_path);
  std::vector<std::string> labels;
  for (const Layer& layer : s.portfolio.layers()) labels.push_back(layer.name);
  expect_report_identical(
      metrics::compute_metrics(reloaded, labels, wall_spec()),
      reference.metrics, "reloaded");

  // Round trip 2: block-streamed reload through YltChunkReader — the
  // out-of-core path — re-reduced with a chunk size unrelated to the
  // spill's shard size.
  io::YltChunkReader reader(spill_path);
  ASSERT_EQ(reader.layer_count(), s.portfolio.layer_count());
  ASSERT_EQ(reader.trial_count(), s.yet.trial_count());
  metrics::StreamingMetricsReducer reducer(labels, reader.trial_count(),
                                           wall_spec());
  constexpr std::size_t kChunk = 52;
  for (std::size_t begin = 0; begin < reader.trial_count(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, reader.trial_count());
    reducer.consume(reader.read_block(begin, end), begin);
  }
  expect_report_identical(reducer.finish(), spilled.metrics, "re-reduced");
  // Bounded memory on the read side too.
  EXPECT_LE(reader.peak_resident_bytes(),
            reader.layer_count() * kChunk * 2 * sizeof(double));
}

// (c) The monolithic reducer path reproduces the classic per-layer
// summary and portfolio rollup bitwise — one formula set, two APIs.
TEST(StreamedMetrics, MatchesLegacySummariesBitwise) {
  const synth::Scenario s = synth::multi_layer_book(4, 300, 77);
  const auto engine =
      make_engine(ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  const Ylt ylt = engine->run(s.portfolio, s.yet).ylt;

  std::vector<std::string> labels;
  for (const Layer& layer : s.portfolio.layers()) labels.push_back(layer.name);

  const metrics::MetricsReport report =
      metrics::compute_metrics(ylt, labels, MetricsSpec::all());
  ASSERT_EQ(report.layers.size(), ylt.layer_count());
  for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
    const metrics::LayerRiskSummary legacy = metrics::summarize_layer(ylt, l);
    const metrics::LayerMetrics& m = report.layers[l];
    EXPECT_EQ(m.aal, legacy.aal);
    EXPECT_EQ(m.std_dev, legacy.std_dev);
    EXPECT_EQ(m.var_at(0.99), legacy.var_99);
    EXPECT_EQ(m.tvar_at(0.99), legacy.tvar_99);
    EXPECT_EQ(m.pml_at(100.0), legacy.pml_100yr);
    EXPECT_EQ(m.pml_at(250.0), legacy.pml_250yr);
    EXPECT_EQ(m.oep_at(100.0), legacy.oep_100yr);
    EXPECT_EQ(m.max_annual, legacy.max_annual);
  }

  const metrics::PortfolioRollup rollup = metrics::rollup_portfolio(ylt);
  ASSERT_TRUE(report.portfolio.has_value());
  const metrics::PortfolioMetrics& pm = *report.portfolio;
  EXPECT_EQ(pm.totals.aal, rollup.aal);
  EXPECT_EQ(pm.totals.var_at(0.99), rollup.var_99);
  EXPECT_EQ(pm.totals.tvar_at(0.99), rollup.tvar_99);
  EXPECT_EQ(pm.diversification_benefit_tvar,
            rollup.diversification_benefit_tvar99);
  ASSERT_EQ(pm.marginal_tvar.size(), rollup.marginal_tvar99.size());
  for (std::size_t l = 0; l < pm.marginal_tvar.size(); ++l) {
    EXPECT_EQ(pm.marginal_tvar[l], rollup.marginal_tvar99[l]);
  }
}

// (d) Boundary-tie torture: a tie band that straddles the reservoir
// floor (the aggregate-limit-clamp shape) must still give exact TVaR —
// the drop ledger replays the evicted ties.
TEST(StreamedMetrics, TailReservoirExactAcrossTieBands) {
  // Ascending: 16 x 100, 15 x 250, 1 x 400. At p = 0.9 the reservoir
  // keeps 5 of the 16 values >= VaR = 250.
  std::vector<double> values;
  for (int i = 0; i < 16; ++i) values.push_back(100.0);
  for (int i = 0; i < 15; ++i) values.push_back(250.0);
  values.push_back(400.0);
  const std::size_t n = values.size();

  Ylt ylt(1, n);
  for (std::size_t t = 0; t < n; ++t) {
    ylt.annual_loss(0, t) = values[t];
    ylt.max_occurrence_loss(0, t) = values[t];
  }

  MetricsSpec spec;
  spec.per_layer = true;
  spec.quantiles = {0.9};
  spec.return_periods = {8.0};

  const metrics::MetricsReport mono =
      metrics::compute_metrics(ylt, {"tied"}, spec);
  EXPECT_EQ(mono.layers[0].var_at(0.9),
            metrics::value_at_risk(values, 0.9));
  EXPECT_EQ(mono.layers[0].tvar_at(0.9),
            metrics::tail_value_at_risk(values, 0.9));

  // Streamed in two out-of-order blocks: same numbers, bit for bit.
  metrics::StreamingMetricsReducer reducer({"tied"}, n, spec);
  Ylt tail_block(1, n - 10);
  for (std::size_t t = 0; t < n - 10; ++t) {
    tail_block.annual_loss(0, t) = values[10 + t];
    tail_block.max_occurrence_loss(0, t) = values[10 + t];
  }
  Ylt head_block(1, 10);
  for (std::size_t t = 0; t < 10; ++t) {
    head_block.annual_loss(0, t) = values[t];
    head_block.max_occurrence_loss(0, t) = values[t];
  }
  reducer.consume(tail_block, 10);  // completion order != trial order
  reducer.consume(head_block, 0);
  const metrics::MetricsReport streamed = reducer.finish();
  EXPECT_EQ(streamed.layers[0].var_at(0.9), mono.layers[0].var_at(0.9));
  EXPECT_EQ(streamed.layers[0].tvar_at(0.9), mono.layers[0].tvar_at(0.9));
  EXPECT_EQ(streamed.layers[0].oep_at(8.0), mono.layers[0].oep_at(8.0));
  EXPECT_EQ(streamed.layers[0].max_annual, 400.0);

  // Degenerate all-equal sample (a layer pinned at its limit): TVaR
  // must equal the common value exactly, streamed or not.
  Ylt flat(1, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    flat.annual_loss(0, t) = 7.5;
    flat.max_occurrence_loss(0, t) = 7.5;
  }
  const metrics::MetricsReport flat_report =
      metrics::compute_metrics(flat, {"flat"}, spec);
  EXPECT_EQ(flat_report.layers[0].var_at(0.9), 7.5);
  EXPECT_EQ(flat_report.layers[0].tvar_at(0.9), 7.5);
}

// (e) The EP-curve tail is exactly the top-k of the sorted sample.
TEST(StreamedMetrics, EpCurveTailMatchesSortedSample) {
  const synth::Scenario s = synth::tiny(kTrials, 31);
  AnalysisSession session;
  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  const AnalysisResult result = session.run(request);

  AnalysisRequest keep = request_for(s.portfolio, s.yet);
  keep.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  const Ylt& ylt = session.run(keep).simulation.ylt;
  for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
    std::vector<double> annual = ylt.layer_annual_vector(l);
    std::sort(annual.begin(), annual.end(), std::greater<>());
    annual.resize(5);  // wall_spec().ep_curve_points
    EXPECT_EQ(result.metrics.layers[l].aep_curve, annual);
  }
}

// (f) Request validation: bad spec points and a pathless spill fail
// loudly before any work runs.
TEST(StreamedMetrics, SpecAndRetentionValidation) {
  const synth::Scenario s = synth::tiny(8, 3);
  AnalysisSession session;

  AnalysisRequest bad_quantile = request_for(s.portfolio, s.yet);
  bad_quantile.metrics.quantiles = {1.5};
  EXPECT_THROW(session.run(bad_quantile), std::invalid_argument);

  AnalysisRequest bad_period = request_for(s.portfolio, s.yet);
  bad_period.metrics.return_periods = {1.0};
  EXPECT_THROW(session.run(bad_period), std::invalid_argument);

  AnalysisRequest pathless = request_for(s.portfolio, s.yet);
  pathless.ylt_retention = YltRetention::kSpillToFile;
  EXPECT_THROW(session.run(pathless), std::invalid_argument);

  // Extension-only runs produce no YLT: asking to spill one is a
  // request error, not a silent no-op.
  AnalysisRequest ext_only = request_for(s.portfolio, s.yet);
  ext_only.core_simulation = false;
  ext_only.metrics = MetricsSpec::none();
  ext_only.reinstatement_terms.assign(s.portfolio.layer_count(),
                                      ext::ReinstatementTerms{});
  ext_only.ylt_retention = YltRetention::kSpillToFile;
  ext_only.ylt_path = ::testing::TempDir() + "/ara_ext_only.bin";
  EXPECT_THROW(session.run(ext_only), std::invalid_argument);
}

// (g) metrics_for: by-name lookup into the report.
TEST(StreamedMetrics, MetricsForLooksUpByLayerName) {
  const synth::Scenario s = synth::multi_layer_book(3, 60, 9);
  AnalysisSession session(
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  AnalysisRequest request = request_for(s.portfolio, s.yet);
  const AnalysisResult result = session.run(request);

  for (std::size_t l = 0; l < s.portfolio.layer_count(); ++l) {
    const metrics::LayerMetrics* m =
        result.metrics_for(s.portfolio.layers()[l].name);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m, &result.metrics.layers[l]);
  }
  EXPECT_EQ(result.metrics_for("no_such_layer"), nullptr);
}

// (h) The presets select their scopes.
TEST(StreamedMetrics, PresetsSelectTheirScopes) {
  const MetricsSpec all = MetricsSpec::all();
  EXPECT_TRUE(all.per_layer);
  EXPECT_TRUE(all.portfolio);
  EXPECT_TRUE(all.capital_allocation);

  EXPECT_FALSE(MetricsSpec::none().any());

  EXPECT_TRUE(MetricsSpec::layer_summaries().per_layer);
  EXPECT_FALSE(MetricsSpec::layer_summaries().portfolio);
  EXPECT_TRUE(MetricsSpec::portfolio_rollup().portfolio);
}

// (i2) Overlapping or duplicate blocks would double-count tail values
// — silently wrong metrics — so the reducer rejects them loudly, like
// ShardMerger does.
TEST(StreamedMetrics, ReducerRejectsOverlappingBlocks) {
  MetricsSpec spec;
  spec.per_layer = true;
  metrics::StreamingMetricsReducer reducer({"l"}, 14, spec);
  const Ylt block(1, 7);
  reducer.consume(block, 0);
  EXPECT_THROW(reducer.consume(block, 0), std::logic_error);  // duplicate
  EXPECT_THROW(reducer.consume(block, 5), std::logic_error);  // overlap
  reducer.consume(block, 7);
  EXPECT_EQ(reducer.finish().blocks_consumed, 2u);
}

// (i3) A failed spill must not leave a valid-looking, zero-filled YLT
// file behind (the writer pre-extends the file before shards run).
TEST(StreamedMetrics, FailedSpillLeavesNoFile) {
  const synth::Scenario s = synth::tiny(kTrials, 37);
  AnalysisSession session;
  const std::string path = ::testing::TempDir() + "/ara_failed_spill.bin";

  AnalysisRequest request = request_for(s.portfolio, s.yet);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kGpuOptimized);
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.block_threads = 128;
  cfg.chunk_size = 512;  // infeasible launch shape: the engine throws
  policy.config = cfg;
  policy.shard_trials = 7;
  request.policy = policy;
  request.ylt_retention = YltRetention::kSpillToFile;
  request.ylt_path = path;

  EXPECT_THROW(session.run(request), std::exception);
  std::ifstream probe(path, std::ios::binary);
  EXPECT_FALSE(probe.good()) << "aborted spill left " << path;
}

// (i4) ...but a failure *before* any writer touches the path must not
// delete a pre-existing file this run never wrote to.
TEST(StreamedMetrics, EarlyFailureSparesPreexistingSpillFile) {
  const synth::Scenario s = synth::tiny(8, 5);
  AnalysisSession session;
  const std::string path = ::testing::TempDir() + "/ara_prior_spill.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "prior run's output";
  }

  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.metrics.quantiles = {2.0};  // invalid: fails validation
  request.ylt_retention = YltRetention::kSpillToFile;
  request.ylt_path = path;
  EXPECT_THROW(session.run(request), std::invalid_argument);

  std::ifstream probe(path, std::ios::binary);
  std::string content;
  std::getline(probe, content);
  EXPECT_EQ(content, "prior run's output");
  std::remove(path.c_str());
}

// (i) YltChunkReader rejects files that are not YLTs.
TEST(StreamedMetrics, YltChunkReaderRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/ara_not_a_ylt.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a YLT header";
  }
  EXPECT_THROW(io::YltChunkReader{path}, std::runtime_error);
}

}  // namespace
}  // namespace ara
