// Hot-path micro-benchmark: old layer-major formulation vs the
// trial-major fused pipeline (+ session-level table/pool caching),
// measured as real wall time on this host and emitted as
// BENCH_hotpath.json — the repo's performance trajectory record.
//
// The scenario shapes bracket the workload space:
//   * few_layers_many_trials — the paper's headline shape (trial count
//     dominates; fusion changes little, caching still helps),
//   * few_layers_10k_trials  — the same shape an order of magnitude
//     longer, where the per-trial SoA/SIMD hot loop dominates,
//   * wide_layer_many_elts   — one contract over 64 ELTs (the deepest
//     per-event combine loop, the vector kernels' target shape),
//   * many_layers_few_trials — a production book (the YET used to be
//     re-streamed per layer; the fused sweep reads it once),
//   * batch_shared_yet       — many requests against one portfolio +
//     YET through AnalysisSession (tables bound once, one persistent
//     pool) vs one-shot engine runs.
//
// The "old" paths reproduce the pre-fusion code exactly: per-run
// ThreadPool construction, per-(layer, ELT) duplicated table builds,
// one parallel_for dispatch per layer, grain-free static splits. Every
// comparison asserts the YLTs are bitwise identical before it reports
// a speed-up; any mismatch fails the run (ctest runs this in --smoke
// mode as a regression gate).
//
// Engine cases additionally measure SimdPolicy::kAuto (DESIGN.md §8):
// the scalar column must stay bitwise identical to the legacy
// formulation, the SIMD column must agree within reassociation
// tolerance and reports which ISA kernel actually ran.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cpu_engines.hpp"
#include "core/session.hpp"
#include "core/simd/policy.hpp"
#include "core/trial_math.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/stopwatch.hpp"
#include "synth/scenarios.hpp"

namespace ara::bench {
namespace {

// ---- The pre-fusion (layer-major) formulations ----------------------------

// The old TableStore: one dense table per (layer, ELT) pair, shared
// ELTs duplicated — rebuilt on every run. Bound as stride-1 columns,
// so the legacy path never reads the event-major store and its YLT is
// an independent bitwise check of that store.
struct LegacyTables {
  std::vector<std::vector<DirectAccessTable<double>>> per_layer;
};

LegacyTables legacy_build_tables(const Portfolio& p) {
  LegacyTables store;
  store.per_layer.reserve(p.layer_count());
  for (const Layer& layer : p.layers()) {
    std::vector<DirectAccessTable<double>> tabs;
    tabs.reserve(layer.elt_indices.size());
    for (const std::size_t idx : layer.elt_indices) {
      tabs.emplace_back(p.elts()[idx]);
    }
    store.per_layer.push_back(std::move(tabs));
  }
  return store;
}

BoundLayer<double> legacy_bind(const Portfolio& p, const LegacyTables& store,
                               std::size_t a) {
  const Layer& layer = p.layers()[a];
  BoundLayer<double> bound;
  bound.layer_terms = layer.terms;
  for (std::size_t j = 0; j < layer.elt_indices.size(); ++j) {
    bound.tables.push_back(store.per_layer[a][j].column());
    bound.terms.push_back(p.elts()[layer.elt_indices[j]].terms());
  }
  return bound;
}

// Old FusedSequentialEngine::run body: layer-major double loop.
Ylt legacy_sequential(const Portfolio& p, const Yet& yet) {
  const LegacyTables tables = legacy_build_tables(p);
  Ylt ylt(p.layer_count(), yet.trial_count());
  for (std::size_t a = 0; a < p.layer_count(); ++a) {
    const BoundLayer<double> layer = legacy_bind(p, tables, a);
    for (TrialId b = 0; b < yet.trial_count(); ++b) {
      const TrialOutcome<double> out =
          simulate_trial_fused<double>(yet.trial(b), layer);
      ylt.annual_loss(a, b) = out.annual;
      ylt.max_occurrence_loss(a, b) = out.max_occurrence;
    }
  }
  return ylt;
}

// Old MultiCoreEngine::run body: fresh ThreadPool per call, one
// parallel_for wave per layer, no grain floor.
Ylt legacy_multicore(const Portfolio& p, const Yet& yet,
                     const EngineConfig& cfg) {
  const LegacyTables tables = legacy_build_tables(p);
  Ylt ylt(p.layer_count(), yet.trial_count());
  parallel::ThreadPool pool(static_cast<std::size_t>(std::max(1u, cfg.cores)) *
                            std::max(1u, cfg.threads_per_core));
  for (std::size_t a = 0; a < p.layer_count(); ++a) {
    const BoundLayer<double> layer = legacy_bind(p, tables, a);
    parallel::parallel_for(
        pool, yet.trial_count(),
        [&](parallel::Range r) {
          for (std::size_t b = r.begin; b < r.end; ++b) {
            const TrialOutcome<double> out = simulate_trial_fused<double>(
                yet.trial(static_cast<TrialId>(b)), layer);
            ylt.annual_loss(a, static_cast<TrialId>(b)) = out.annual;
            ylt.max_occurrence_loss(a, static_cast<TrialId>(b)) =
                out.max_occurrence;
          }
        },
        parallel::Schedule::kStatic, 1024, /*min_grain=*/1);
  }
  return ylt;
}

// A pricing-service workload: many small trial years against a wide
// shared-ELT book, so the YLT (layers x trials) dominates the cost of
// a run rather than the event maths — the regime the metric-only
// retention mode exists for.
synth::Scenario metric_service_scenario(std::size_t layers,
                                        std::size_t trials,
                                        std::uint64_t seed) {
  synth::Catalogue catalogue = synth::Catalogue::make(20000, 6, 800.0);

  synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.target_events_per_trial = 4.0;
  yc.seed = seed;
  Yet yet = synth::generate_yet(catalogue, yc);

  synth::PortfolioGeneratorConfig pc;
  pc.elt_count = 40;
  pc.layer_count = layers;
  pc.min_elts_per_layer = 3;
  pc.max_elts_per_layer = 30;
  pc.elt.record_count = 500;
  pc.elt.mean_loss = 5.0e5;
  pc.elt.terms.retention = 2.0e4;
  pc.elt.terms.limit = 1.0e8;
  pc.seed = seed + 1;
  Portfolio portfolio = synth::generate_portfolio(catalogue, pc);

  return {std::move(catalogue), std::move(yet), std::move(portfolio)};
}

// One very wide contract: a single layer over `elts` ELTs, so the
// per-event combine loop — the part the vector kernels target — is as
// deep as the generator allows. Event-heavy years keep the hot loop,
// not the YLT, as the cost.
synth::Scenario wide_layer_scenario(std::size_t elts, std::size_t trials,
                                    std::uint64_t seed) {
  synth::Catalogue catalogue = synth::Catalogue::make(20000, 6, 800.0);

  synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.target_events_per_trial = 50.0;
  yc.seed = seed;
  Yet yet = synth::generate_yet(catalogue, yc);

  synth::PortfolioGeneratorConfig pc;
  pc.elt_count = elts;
  pc.layer_count = 1;
  pc.min_elts_per_layer = elts;
  pc.max_elts_per_layer = elts;
  pc.elt.record_count = 500;
  pc.elt.mean_loss = 5.0e5;
  pc.elt.terms.retention = 2.0e4;
  pc.elt.terms.limit = 1.0e8;
  pc.seed = seed + 1;
  Portfolio portfolio = synth::generate_portfolio(catalogue, pc);

  return {std::move(catalogue), std::move(yet), std::move(portfolio)};
}

// ---- Harness ---------------------------------------------------------------

bool bitwise_equal(const Ylt& a, const Ylt& b) {
  if (a.layer_count() != b.layer_count() ||
      a.trial_count() != b.trial_count()) {
    return false;
  }
  return a.annual_raw() == b.annual_raw() &&
         a.max_occurrence_raw() == b.max_occurrence_raw();
}

// Vector kernels reassociate the per-event ELT sum (fixed lane order,
// so deterministic run-to-run) — SIMD results match scalar within a
// relative band, not bitwise.
bool close_enough(const Ylt& a, const Ylt& b, double rel) {
  if (a.layer_count() != b.layer_count() ||
      a.trial_count() != b.trial_count()) {
    return false;
  }
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (TrialId t = 0; t < a.trial_count(); ++t) {
      const double e = b.annual_loss(l, t);
      if (std::abs(a.annual_loss(l, t) - e) > rel * (1.0 + std::abs(e))) {
        return false;
      }
      const double eo = b.max_occurrence_loss(l, t);
      if (std::abs(a.max_occurrence_loss(l, t) - eo) >
          rel * (1.0 + std::abs(eo))) {
        return false;
      }
    }
  }
  return true;
}

struct CaseResult {
  std::string name;
  std::string engine;
  std::size_t layers = 0;
  std::size_t trials = 0;
  std::size_t reps = 0;
  double old_seconds = 0.0;
  double new_seconds = 0.0;
  bool identical = false;

  // The SimdPolicy::kAuto column, for engine cases (0 / empty = not
  // measured). `simd_isa` is the kernel that actually ran — "scalar"
  // on a host or build without vector kernels, in which case the SIMD
  // gates below don't apply.
  double simd_seconds = 0.0;
  std::string simd_isa;
  bool simd_close = true;

  // Resident bytes of each path, when the case measures memory too
  // (metric_only_discard: full YLT vs reducer reservoirs). 0 = n/a.
  std::size_t old_bytes = 0;
  std::size_t new_bytes = 0;

  double speedup() const {
    return new_seconds > 0.0 ? old_seconds / new_seconds : 0.0;
  }
  double simd_speedup() const {
    return simd_seconds > 0.0 ? old_seconds / simd_seconds : 0.0;
  }
  double simd_vs_scalar() const {
    return simd_seconds > 0.0 ? new_seconds / simd_seconds : 0.0;
  }
};

template <typename F>
double best_of(std::size_t reps, F&& f) {
  double best = 1e300;
  for (std::size_t i = 0; i < reps; ++i) {
    perf::Stopwatch sw;
    f();
    best = std::min(best, sw.seconds());
  }
  return best;
}

void print_case(const CaseResult& c) {
  std::cout << "  " << c.name << " [" << c.engine << "] layers=" << c.layers
            << " trials=" << c.trials << ": old " << c.old_seconds * 1e3
            << " ms -> new " << c.new_seconds * 1e3 << " ms  ("
            << c.speedup() << "x, " << (c.identical ? "bitwise OK" : "YLT MISMATCH")
            << ")\n";
  if (c.simd_seconds > 0.0) {
    std::cout << "    simd [" << c.simd_isa << "]: " << c.simd_seconds * 1e3
              << " ms  (" << c.simd_speedup() << "x vs old, "
              << c.simd_vs_scalar() << "x vs scalar, "
              << (c.simd_close ? "within tolerance" : "OUT OF TOLERANCE")
              << ")\n";
  }
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                bool smoke) {
  std::ofstream os(path);
  os << "{\n  \"benchmark\": \"microbench_hotpath\",\n"
     << "  \"unit\": \"seconds_wall\",\n"
     << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
     << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"name\": \"" << c.name << "\", \"engine\": \"" << c.engine
       << "\", \"layers\": " << c.layers << ", \"trials\": " << c.trials
       << ", \"reps\": " << c.reps << ", \"old_seconds\": " << c.old_seconds
       << ", \"new_seconds\": " << c.new_seconds
       << ", \"speedup\": " << c.speedup()
       << ", \"bitwise_identical\": " << (c.identical ? "true" : "false");
    if (c.simd_seconds > 0.0) {
      os << ", \"simd_isa\": \"" << c.simd_isa << "\""
         << ", \"simd_seconds\": " << c.simd_seconds
         << ", \"simd_speedup\": " << c.simd_speedup()
         << ", \"simd_vs_scalar\": " << c.simd_vs_scalar()
         << ", \"simd_within_tolerance\": " << (c.simd_close ? "true" : "false");
    }
    if (c.old_bytes > 0 || c.new_bytes > 0) {
      os << ", \"old_resident_bytes\": " << c.old_bytes
         << ", \"new_resident_bytes\": " << c.new_bytes;
    }
    os << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace
}  // namespace ara::bench

int main(int argc, char** argv) {
  using namespace ara;
  using namespace ara::bench;

  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  print_header("hot-path microbenchmark: layer-major vs trial-major fused",
               "perf trajectory (no paper figure; measured on this host)");

  EngineConfig mc_cfg;
  mc_cfg.cores = 4;
  mc_cfg.threads_per_core = 2;

  const std::size_t reps = smoke ? 2 : 5;
  std::vector<CaseResult> cases;
  bool all_identical = true;
  bool all_simd_close = true;

  const auto run_case = [&](const std::string& name, const synth::Scenario& s,
                            EngineKind kind) {
    CaseResult c;
    c.name = name;
    c.engine = engine_kind_name(kind);
    c.layers = s.portfolio.layer_count();
    c.trials = s.yet.trial_count();
    c.reps = reps;

    ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
    policy.config = mc_cfg;
    AnalysisSession session(policy);
    AnalysisRequest request;
    request.portfolio = &s.portfolio;
    request.yet = &s.yet;

    const auto run_old = [&]() -> Ylt {
      return kind == EngineKind::kMultiCore
                 ? legacy_multicore(s.portfolio, s.yet, mc_cfg)
                 : legacy_sequential(s.portfolio, s.yet);
    };

    // The same case under SimdPolicy::kAuto — the vector kernels when
    // the build + host provide them, otherwise the scalar fallback
    // (then simd_isa reports "scalar" and the SIMD gates don't apply).
    ExecutionPolicy simd_policy = policy;
    simd_policy.simd = simd::SimdPolicy::kAuto;
    AnalysisRequest simd_request = request;
    simd_request.policy = simd_policy;

    // Warm every path (caches, pools, engine construction) before any
    // timing.
    const Ylt old_ylt = run_old();
    const Ylt new_ylt = session.run(request).simulation.ylt;
    const AnalysisResult simd_run = session.run(simd_request);
    c.simd_isa = simd_run.simulation.simd_isa;

    // Interleaved best-of timing: one rep of each column per round.
    // Timing each column as a contiguous block lets one interference
    // window on a shared host poison exactly one column (and so one
    // side of a speed-up ratio); round-robin spreads disturbances
    // across all three, and best-of still discards them.
    double old_best = 1e300, new_best = 1e300, simd_best = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
      {
        perf::Stopwatch sw;
        (void)run_old();
        old_best = std::min(old_best, sw.seconds());
      }
      {
        perf::Stopwatch sw;
        (void)session.run(request);
        new_best = std::min(new_best, sw.seconds());
      }
      {
        perf::Stopwatch sw;
        (void)session.run(simd_request);
        simd_best = std::min(simd_best, sw.seconds());
      }
    }
    c.old_seconds = old_best;
    c.new_seconds = new_best;
    c.simd_seconds = simd_best;

    c.identical = bitwise_equal(old_ylt, new_ylt);
    all_identical = all_identical && c.identical;
    c.simd_close = close_enough(simd_run.simulation.ylt, new_ylt, 1e-9);
    all_simd_close = all_simd_close && c.simd_close;

    cases.push_back(c);
    print_case(c);
  };

  // Shape 1: the paper's headline shape — one fat layer, many trials.
  const synth::Scenario wide =
      synth::paper_scaled(smoke ? 4000 : 1000, 2026);
  run_case("few_layers_many_trials", wide, EngineKind::kSequentialFused);
  run_case("few_layers_many_trials", wide, EngineKind::kMultiCore);

  // Shape 1b: the headline shape an order of magnitude longer — the
  // regime where the per-trial hot loop is essentially the whole run,
  // so this is the cleanest read on the SoA/SIMD kernels themselves.
  const synth::Scenario wide_long =
      synth::paper_scaled(smoke ? 1000 : 100, 2027);
  run_case("few_layers_10k_trials", wide_long, EngineKind::kSequentialFused);

  // Shape 1c: one contract over 64 ELTs — the deepest per-event
  // combine loop the generator can produce; the vector kernels' target
  // shape (lanes stay full, remainders negligible).
  const synth::Scenario wide_elts =
      wide_layer_scenario(64, smoke ? 400 : 2000, 2028);
  run_case("wide_layer_many_elts", wide_elts, EngineKind::kSequentialFused);

  // Shape 2: a production book — many layers sharing an ELT pool over
  // one YET. This is where layer-major re-streaming of the YET and
  // per-(layer, ELT) table duplication hurt most.
  const synth::Scenario book =
      synth::multi_layer_book(smoke ? 12 : 24, smoke ? 150 : 400, 2026);
  run_case("many_layers_shared_yet", book, EngineKind::kSequentialFused);
  run_case("many_layers_shared_yet", book, EngineKind::kMultiCore);

  // Shape 3: a batch of analyses against one portfolio + YET. Old: a
  // fresh one-shot engine per request (tables + pool rebuilt every
  // time). New: AnalysisSession::run_batch over cached tables and the
  // persistent pools.
  {
    const synth::Scenario s =
        synth::multi_layer_book(smoke ? 8 : 16, smoke ? 120 : 300, 77);
    const std::size_t batch = smoke ? 4 : 8;

    CaseResult c;
    c.name = "batch_shared_yet";
    c.engine = engine_kind_name(EngineKind::kMultiCore);
    c.layers = s.portfolio.layer_count();
    c.trials = s.yet.trial_count();
    c.reps = reps;

    Ylt old_ylt;
    const auto run_old_batch = [&] {
      for (std::size_t i = 0; i < batch; ++i) {
        old_ylt = legacy_multicore(s.portfolio, s.yet, mc_cfg);
      }
    };
    run_old_batch();
    c.old_seconds = best_of(reps, run_old_batch);

    ExecutionPolicy policy = ExecutionPolicy::with_engine(EngineKind::kMultiCore);
    policy.config = mc_cfg;
    AnalysisSession session(policy);
    std::vector<AnalysisRequest> requests(batch);
    for (auto& r : requests) {
      r.portfolio = &s.portfolio;
      r.yet = &s.yet;
    }
    Ylt new_ylt = session.run_batch(requests).back().simulation.ylt;  // warm
    c.new_seconds = best_of(reps, [&] {
      auto results = session.run_batch(requests);
      new_ylt = std::move(results.back().simulation.ylt);
    });

    c.identical = bitwise_equal(old_ylt, new_ylt);
    all_identical = all_identical && c.identical;
    cases.push_back(c);
    print_case(c);
  }

  // Shape 4: sharded streaming vs monolithic execution of the same
  // analysis (PR 4). "old" is the monolithic session run, "new" the
  // trial-sharded one (8 shards through the shard scheduler); the
  // speed-up column is therefore the sharding *overhead* (expected
  // near 1.0 — reads/merges are disjoint block copies). The YLTs must
  // still be bitwise identical, which the shared gate below enforces.
  {
    const synth::Scenario s =
        synth::multi_layer_book(smoke ? 8 : 16, smoke ? 160 : 320, 99);

    CaseResult c;
    c.name = "sharded_vs_monolithic";
    c.engine = engine_kind_name(EngineKind::kMultiCore);
    c.layers = s.portfolio.layer_count();
    c.trials = s.yet.trial_count();
    c.reps = reps;

    ExecutionPolicy mono_policy =
        ExecutionPolicy::with_engine(EngineKind::kMultiCore);
    mono_policy.config = mc_cfg;
    ExecutionPolicy sharded_policy = mono_policy;
    sharded_policy.shard_trials = s.yet.trial_count() / 8;

    AnalysisSession session(mono_policy);
    AnalysisRequest mono_request;
    mono_request.portfolio = &s.portfolio;
    mono_request.yet = &s.yet;
    AnalysisRequest sharded_request = mono_request;
    sharded_request.policy = sharded_policy;

    Ylt mono_ylt = session.run(mono_request).simulation.ylt;  // warm caches
    c.old_seconds = best_of(reps, [&] { (void)session.run(mono_request); });
    Ylt sharded_ylt = session.run(sharded_request).simulation.ylt;
    c.new_seconds =
        best_of(reps, [&] { (void)session.run(sharded_request); });

    c.identical = bitwise_equal(mono_ylt, sharded_ylt);
    all_identical = all_identical && c.identical;
    cases.push_back(c);
    print_case(c);
  }

  // Shape 5: metric-only pricing (PR 5). Both paths run the same
  // sharded plan and the same reducer formulas; "old" additionally
  // materializes the full YLT (zero-filled allocation + one merge copy
  // per shard + the metric pass re-reading the merged table), "new"
  // runs YltRetention::kDiscard — shard blocks stream through the tail
  // reservoirs and the layers x trials table is never allocated. The
  // workload is deliberately trial-heavy and event-light (a long YET
  // of small years over a wide book), the regime where the table, not
  // the simulation, is the cost — the ROADMAP's pricing-service shape.
  // The case also records resident bytes of each path (YLT cells vs
  // reservoir entries).
  {
    const synth::Scenario s = metric_service_scenario(
        /*layers=*/24, /*trials=*/smoke ? 20000 : 60000, /*seed=*/123);

    CaseResult c;
    c.name = "metric_only_discard";
    c.engine = engine_kind_name(EngineKind::kMultiCore);
    c.layers = s.portfolio.layer_count();
    c.trials = s.yet.trial_count();
    c.reps = reps;

    MetricsSpec spec = MetricsSpec::all();
    spec.quantiles = {0.95, 0.99, 0.995};
    spec.return_periods = {50.0, 100.0, 250.0};

    ExecutionPolicy policy = ExecutionPolicy::with_engine(EngineKind::kMultiCore);
    policy.config = mc_cfg;
    AnalysisSession session(policy);

    ExecutionPolicy sharded = policy;
    sharded.shard_trials = s.yet.trial_count() / 8;

    AnalysisRequest keep;
    keep.portfolio = &s.portfolio;
    keep.yet = &s.yet;
    keep.metrics = spec;
    keep.policy = sharded;

    AnalysisRequest discard = keep;
    discard.ylt_retention = YltRetention::kDiscard;

    const AnalysisResult keep_run = session.run(keep);        // warm caches
    const AnalysisResult discard_run = session.run(discard);

    // The order-statistic family must agree bitwise between the two
    // paths (the wall in tests/test_metrics_streaming.cpp; this is the
    // bench-side regression tripwire).
    bool metrics_equal =
        discard_run.simulation.ylt.trial_count() == 0 &&
        discard_run.metrics.layers.size() == keep_run.metrics.layers.size();
    if (metrics_equal) {
      for (std::size_t l = 0; l < keep_run.metrics.layers.size(); ++l) {
        metrics_equal =
            metrics_equal &&
            discard_run.metrics.layers[l].var_at(0.99) ==
                keep_run.metrics.layers[l].var_at(0.99) &&
            discard_run.metrics.layers[l].tvar_at(0.995) ==
                keep_run.metrics.layers[l].tvar_at(0.995) &&
            discard_run.metrics.layers[l].oep_at(100.0) ==
                keep_run.metrics.layers[l].oep_at(100.0);
      }
    }
    c.identical = metrics_equal;

    c.old_seconds = best_of(reps, [&] { (void)session.run(keep); });
    c.new_seconds = best_of(reps, [&] { (void)session.run(discard); });
    c.old_bytes = c.layers * c.trials * 2 * sizeof(double);
    c.new_bytes = discard_run.metrics.reservoir_entries * sizeof(double);

    all_identical = all_identical && c.identical;
    cases.push_back(c);
    print_case(c);
    std::cout << "    resident: full YLT " << c.old_bytes / 1024
              << " KiB vs reservoirs " << c.new_bytes / 1024 << " KiB\n";
  }

  write_json(out_path, cases, smoke);
  std::cout << "\nwrote " << out_path << "\n";

  // Regression gates. Full mode (the committed BENCH_hotpath.json)
  // demands the real wins; smoke mode runs on shared CI machines at
  // reduced workload sizes where wall-clock ratios are noisier, so its
  // floors are looser — enough to catch a genuine regression without
  // failing CI on runner contention.
  //   * every engine case: scalar bitwise-identical to the legacy
  //     formulation, SIMD within reassociation tolerance of scalar;
  //   * many_layers_shared_yet multicore: the trial-major fusion win;
  //   * few_layers sequential scalar: the SoA rewrite must not lose to
  //     the legacy loop on the paper's headline shape (the pre-PR
  //     0.94x regression this PR fixes);
  //   * sequential SIMD: the vector kernels must actually pay off —
  //     gated only when a vector ISA really ran, so scalar builds and
  //     hosts (-DARA_DISABLE_SIMD) still pass. The full floor is 1.3x
  //     on the headline shape and the 64-ELT shape; the 10k-trial
  //     shape's tables spill L2 on this host, leaving the lane gather
  //     latency-bound, so its floor is the looser 1.1x.
  const double many_layers_floor = smoke ? 1.5 : 2.0;
  const double scalar_floor = smoke ? 0.9 : 1.0;
  const double simd_floor = smoke ? 1.05 : 1.3;
  const double simd_floor_l2 = smoke ? 1.0 : 1.1;
  if (!all_identical) {
    std::cerr << "FAIL: old and new formulations disagree bitwise\n";
    return 1;
  }
  if (!all_simd_close) {
    std::cerr << "FAIL: a SIMD run left the scalar tolerance band\n";
    return 1;
  }
  bool gates_ok = true;
  for (const CaseResult& c : cases) {
    if (c.name == "many_layers_shared_yet" && c.engine == "multicore_cpu" &&
        c.speedup() < many_layers_floor) {
      std::cerr << "FAIL: many_layers_shared_yet multicore speedup "
                << c.speedup() << "x < " << many_layers_floor << "x\n";
      gates_ok = false;
    }
    const bool few_layers_seq =
        (c.name == "few_layers_many_trials" ||
         c.name == "few_layers_10k_trials") &&
        c.engine == "sequential_fused";
    if (few_layers_seq && c.speedup() < scalar_floor) {
      std::cerr << "FAIL: " << c.name << " scalar speedup " << c.speedup()
                << "x < " << scalar_floor << "x\n";
      gates_ok = false;
    }
    const bool vector_ran = !c.simd_isa.empty() && c.simd_isa != "scalar";
    const bool simd_gated =
        (few_layers_seq || c.name == "wide_layer_many_elts") &&
        c.engine == "sequential_fused";
    const double case_simd_floor =
        c.name == "few_layers_10k_trials" ? simd_floor_l2 : simd_floor;
    if (simd_gated && vector_ran && c.simd_speedup() < case_simd_floor) {
      std::cerr << "FAIL: " << c.name << " simd (" << c.simd_isa
                << ") speedup " << c.simd_speedup() << "x < "
                << case_simd_floor << "x\n";
      gates_ok = false;
    }
  }
  if (!gates_ok) return 1;
  std::cout << "hot-path gates passed\n";
  return 0;
}
