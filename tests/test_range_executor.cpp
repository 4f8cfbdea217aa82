// The trial-range loop is indifferent to its executor (DESIGN.md §5):
// run_ranges() over a fake executor that hands each wave's blocks back
// in reverse order from two threads must produce the result the
// session's shard pool produces — bitwise, rows, accounting, adaptive
// outcome and every metric — for fixed and adaptive runs, each kept
// and discarded. Run on a finer block plan than the pool's, it must
// still report every metric bitwise.
#include "core/range_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "report_identity.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

constexpr std::size_t kBlock = 250;

// Prices each wave's ranges itself, then delivers the partials in
// reverse order from two threads taking alternate blocks — a
// completion order and interleaving the shard pool never produces.
class ReversingExecutor final : public RangeExecutor {
 public:
  ReversingExecutor(const Engine& engine, const Portfolio& portfolio,
                    const Yet& yet)
      : engine_(engine), portfolio_(portfolio), yet_(yet) {}

  void run(std::vector<TrialRange> ranges, const Accept& accept) override {
    while (!ranges.empty()) {
      std::vector<SimulationResult> partials;
      for (const TrialRange& range : ranges) {
        EngineContext ctx;
        ctx.trials = range;
        partials.push_back(engine_.run(portfolio_, yet_, ctx));
      }
      std::reverse(partials.begin(), partials.end());

      std::mutex mutex;
      std::vector<TrialRange> next;
      std::exception_ptr error;
      const auto deliver = [&](std::size_t first) {
        try {
          for (std::size_t i = first; i < partials.size(); i += 2) {
            const std::vector<TrialRange> more =
                accept(std::move(partials[i]));
            std::lock_guard<std::mutex> lock(mutex);
            next.insert(next.end(), more.begin(), more.end());
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
        }
      };
      std::thread even(deliver, 0);
      std::thread odd(deliver, 1);
      even.join();
      odd.join();
      if (error) std::rethrow_exception(error);
      ranges = std::move(next);
    }
  }

 private:
  const Engine& engine_;
  const Portfolio& portfolio_;
  const Yet& yet_;
};

void expect_same_analysis(const AnalysisResult& got,
                          const AnalysisResult& want,
                          const std::string& what) {
  const SimulationResult& g = got.simulation;
  const SimulationResult& w = want.simulation;
  EXPECT_EQ(g.ylt.layer_count(), w.ylt.layer_count()) << what;
  EXPECT_EQ(g.ylt.trial_count(), w.ylt.trial_count()) << what;
  EXPECT_EQ(g.ylt.annual_raw(), w.ylt.annual_raw()) << what;
  EXPECT_EQ(g.ylt.max_occurrence_raw(), w.ylt.max_occurrence_raw()) << what;
  EXPECT_EQ(g.ops, w.ops) << what;
  EXPECT_EQ(g.simulated_seconds, w.simulated_seconds) << what;
  EXPECT_EQ(g.engine_name, w.engine_name) << what;
  EXPECT_EQ(g.simd_isa, w.simd_isa) << what;

  EXPECT_EQ(got.shard_count, want.shard_count) << what;
  EXPECT_EQ(got.trials_executed, want.trials_executed) << what;
  EXPECT_EQ(got.stopped_early, want.stopped_early) << what;
  ASSERT_EQ(got.half_widths.size(), want.half_widths.size()) << what;
  for (std::size_t i = 0; i < want.half_widths.size(); ++i) {
    EXPECT_EQ(got.half_widths[i].trials, want.half_widths[i].trials) << what;
    EXPECT_EQ(got.half_widths[i].estimate, want.half_widths[i].estimate)
        << what;
    EXPECT_EQ(got.half_widths[i].half_width, want.half_widths[i].half_width)
        << what;
    EXPECT_EQ(got.half_widths[i].satisfied, want.half_widths[i].satisfied)
        << what;
  }

  testdata::expect_report_identical(got.metrics, want.metrics, what);
  testdata::expect_same_block_accounting(got.metrics, want.metrics, what);
}

TEST(RangeExecutor, DeliveryOrderNeverChangesTheResult) {
  const synth::Scenario s = synth::tiny(3000, 41);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  policy.shard_trials = kBlock;
  const std::unique_ptr<Engine> engine = make_engine(policy);
  AnalysisSession session(policy);
  const ShardPlan plan = session.shard_plan(s.portfolio, s.yet, policy);
  ASSERT_GT(plan.shard_count(), 2u);

  metrics::StoppingSpec stopping;
  stopping.relative_tolerance = 0.07;
  stopping.min_trials = 500;

  for (const bool adaptive : {false, true}) {
    for (const YltRetention retention :
         {YltRetention::kKeep, YltRetention::kDiscard}) {
      const std::string what =
          std::string(adaptive ? "adaptive" : "fixed") +
          (retention == YltRetention::kKeep ? "/keep" : "/discard");
      AnalysisRequest request;
      request.portfolio = &s.portfolio;
      request.yet = &s.yet;
      request.metrics = MetricsSpec::all();
      request.metrics.ep_curve_points = 4;
      request.ylt_retention = retention;
      if (adaptive) request.stopping = stopping;

      const AnalysisResult want = session.run(request);
      ReversingExecutor reversing(*engine, s.portfolio, s.yet);
      const AnalysisResult got = run_ranges(request, *engine, plan, reversing);

      if (adaptive) {
        // The schedule must grow past its first wave and stop early for
        // the barrier path to be exercised.
        EXPECT_GT(want.trials_executed, stopping.min_trials) << what;
        EXPECT_TRUE(want.stopped_early) << what;
      }
      expect_same_analysis(got, want, what);
    }
  }
}

// The reducer's exact sums leave the report nothing to learn from the
// block plan: a fake executor running shards of kBlock / 3 reports, bit
// for bit, what the shard pool reports at kBlock.
TEST(RangeExecutor, BlockPlanNeverChangesTheReport) {
  const synth::Scenario s = synth::tiny(3000, 43);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  policy.shard_trials = kBlock;
  AnalysisSession session(policy);
  ExecutionPolicy fine = policy;
  fine.shard_trials = kBlock / 3;
  const std::unique_ptr<Engine> engine = make_engine(fine);
  const ShardPlan plan = session.shard_plan(s.portfolio, s.yet, fine);
  ASSERT_GT(plan.shard_count(),
            session.shard_plan(s.portfolio, s.yet, policy).shard_count());

  for (const YltRetention retention :
       {YltRetention::kKeep, YltRetention::kDiscard}) {
    const std::string what =
        retention == YltRetention::kKeep ? "keep" : "discard";
    AnalysisRequest request;
    request.portfolio = &s.portfolio;
    request.yet = &s.yet;
    request.metrics = MetricsSpec::all();
    request.metrics.ep_curve_points = 4;
    request.ylt_retention = retention;

    const AnalysisResult want = session.run(request);
    ReversingExecutor reversing(*engine, s.portfolio, s.yet);
    const AnalysisResult got = run_ranges(request, *engine, plan, reversing);
    EXPECT_EQ(got.simulation.ylt.annual_raw(), want.simulation.ylt.annual_raw())
        << what;
    testdata::expect_report_identical(got.metrics, want.metrics, what);
    if (retention == YltRetention::kDiscard) {
      EXPECT_GT(got.metrics.blocks_consumed, want.metrics.blocks_consumed)
          << what;
    }
  }
}

}  // namespace
}  // namespace ara
