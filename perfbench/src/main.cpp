// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--inject-wrong-answer]
//
// Workloads (each runs in its own process):
//   paper_headline  Section IV's shape on the full 2M-event catalogue:
//                   one layer of 15 ELTs x 20k records (~240 MB of double
//                   tables, far beyond L2), 1000 events/trial, priced back
//                   to back on multicore_cpu, monolithic, YLT kept.
//   book_tail       the metric-only service shape: 24 layers over a
//                   40-ELT pool, ~4 events/trial, sharded over the shard
//                   pool on sequential_fused, YLT discarded, per-layer +
//                   portfolio metrics with capital allocation.
//   serve_paced     an in-process AnalysisService behind a ServeServer on
//                   a unix socket; two tenants (quotes, weight 2; risk,
//                   weight 1), each request sharded over the session's
//                   shard pool, under paced open-loop Poisson arrivals,
//                   alternating with saturated closed-loop phases.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that records one span per call into each layer's public
// functions, from this file, and reports the per-layer metrics. Every
// answer is checked against sequential_reference after the timed phase
// (order statistics bitwise, the mean family within 1e-12 of
// extended-precision sums of the reference YLT); a wrong answer prints
// "correct": false and exits 1. The last stdout
// line is the result object; lines before it starting with '#' are
// attribution (host, pools, engines, input fingerprints). The unix
// socket lives under .bench_build/ of the working directory.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <malloc.h>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/cpu_engines.hpp"
#include "core/engine_factory.hpp"
#include "core/metrics/streaming.hpp"
#include "core/reference_engine.hpp"
#include "core/session.hpp"
#include "core/shard.hpp"
#include "core/simd/kernels.hpp"
#include "core/trial_math.hpp"
#include "harness.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "synth/scenarios.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ara::AnalysisRequest;
using ara::AnalysisResult;
using ara::AnalysisSession;
using ara::EngineKind;
using ara::ExecutionPolicy;
using ara::MetricsSpec;
using ara::YltRetention;
using ara::metrics::MetricsReport;
using ara::synth::Scenario;

// Set-up is repeated and its median reported, so one slow allocation or
// page-fault burst does not decide setup_s. Between repetitions freed
// memory goes back to the OS, so peak_rss_mb reflects one set-up's live
// data, not the allocator's history of the earlier ones.
constexpr int kSetupReps = 5;
// Pools leave one core to the caller and the OS and are at most this
// wide. On a shared 4-vCPU VM a pool on every core waits for whichever
// core a neighbour slows: over 5 alternating pairs of 30 s book_tail
// runs, trials_per_s spread 23.5% and latency p90 30% with 4 workers,
// 12% and 18% with 3.
constexpr std::size_t kMaxWorkers = 4;
// Untimed analyses between set-up and the timed phase: the first few
// after set-up ran up to ~30% slower in a latency dump of paper_headline.
constexpr int kSteadyWarmups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool inject_wrong_answer = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw <= 1 ? 1 : hw - 1, 1, kMaxWorkers);
}

std::vector<std::string> layer_labels(const ara::Portfolio& portfolio) {
  std::vector<std::string> labels;
  for (const ara::Layer& layer : portfolio.layers()) labels.push_back(layer.name);
  return labels;
}

double ms(double seconds) { return seconds * 1e3; }

// Answers are deterministic, so a run keeps one copy of each distinct
// answer and, per sample, the index of the copy it equals bitwise; the
// gate then checks every distinct copy against the reference. Keeping
// copies per sample would put the benchmark's own storage, growing with
// throughput, into peak_rss_mb. Thread-safe.
template <typename Answer>
class AnswerLog {
 public:
  using Same = std::function<bool(const Answer&, const Answer&)>;
  explicit AnswerLog(Same same) : same_(std::move(same)) {}

  std::size_t add(Answer answer) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = distinct_.size(); i-- > 0;) {
      if (same_(distinct_[i], answer)) return i;
    }
    distinct_.push_back(std::move(answer));
    return distinct_.size() - 1;
  }
  /// Read after every add() has returned.
  std::vector<Answer>& distinct() { return distinct_; }

 private:
  Same same_;
  std::mutex mutex_;
  std::vector<Answer> distinct_;
};

bool identical_reports(const MetricsReport& a, const MetricsReport& b) {
  std::string ignored;
  return same_report(a, b, ignored, /*mean_rel_tol=*/0.0);
}

// A deliberately wrong answer, for the self-test of the correctness gate.
void corrupt(MetricsReport& report) {
  if (!report.layers.empty()) {
    report.layers.front().max_annual += 1.0;
  } else if (report.portfolio) {
    report.portfolio->totals.max_annual += 1.0;
  }
}

// How far the mean family (AAL, standard deviation) of the answers and
// of the program's monolithic compute_metrics on the oracle's YLT sit
// from the accurate reference, and from each other: the gate allows
// 1e-12 from the reference; the streaming reducers document <= 1e-12
// between a streamed and the monolithic answer.
template <typename Answer, typename ReportOf>
void print_mean_family_error(const std::string& dataset,
                             const std::vector<Answer>& answers,
                             const MetricsReport& monolithic,
                             const MetricsReport& reference, ReportOf report_of) {
  double answer_err = 0.0;
  double answer_vs_monolithic = 0.0;
  for (const Answer& a : answers) {
    answer_err = std::max(answer_err, mean_family_rel_diff(report_of(a), reference));
    answer_vs_monolithic =
        std::max(answer_vs_monolithic, mean_family_rel_diff(report_of(a), monolithic));
  }
  std::printf("# mean_family %s max_rel_err answers=%.3g monolithic=%.3g "
              "answers_vs_monolithic=%.3g tolerance=1e-12\n",
              dataset.c_str(), answer_err,
              mean_family_rel_diff(monolithic, reference), answer_vs_monolithic);
}

// ---- Inputs ---------------------------------------------------------------

// The paper's Section IV shape (synth::paper_scaled's generator
// parameters) at an explicit catalogue size, ELT depth and trial count.
Scenario paper_shape(ara::EventId catalogue_size, std::size_t records,
                     std::size_t trials, std::uint64_t seed) {
  ara::synth::Catalogue catalogue =
      ara::synth::Catalogue::make(catalogue_size, 6, 1000.0);
  ara::synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.target_events_per_trial = 1000.0;
  yc.seed = derive_seed(seed, 1);
  ara::Yet yet = ara::synth::generate_yet(catalogue, yc);

  ara::synth::PortfolioGeneratorConfig pc;
  pc.elt_count = 15;
  pc.layer_count = 1;
  pc.min_elts_per_layer = 15;
  pc.max_elts_per_layer = 15;
  pc.elt.record_count = records;
  pc.elt.mean_loss = 2.0e6;
  pc.elt.cv = 2.5;
  pc.elt.terms.retention = 1.0e5;
  pc.elt.terms.limit = 5.0e8;
  pc.elt.terms.share = 0.8;
  pc.seed = derive_seed(seed, 2);
  ara::Portfolio portfolio = ara::synth::generate_portfolio(catalogue, pc);
  return {std::move(catalogue), std::move(yet), std::move(portfolio)};
}

// The metric-only service shape (microbench_hotpath's
// metric_service_scenario): 24 layers of 3-30 ELTs from a 40-ELT pool
// over a 20k-event catalogue, ~4 events per trial. The portfolio is the
// same for every seed: the ELT count each layer draws sets the lookups
// per occurrence, so a seeded portfolio would change the work of an
// analysis by about 10% from seed to seed. `seed` draws the YET.
Scenario book_shape(std::size_t trials, std::uint64_t seed) {
  ara::synth::Catalogue catalogue = ara::synth::Catalogue::make(20000, 6, 800.0);
  ara::synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.target_events_per_trial = 4.0;
  yc.seed = derive_seed(seed, 3);
  ara::Yet yet = ara::synth::generate_yet(catalogue, yc);

  ara::synth::PortfolioGeneratorConfig pc;
  pc.elt_count = 40;
  pc.layer_count = 24;
  pc.min_elts_per_layer = 3;
  pc.max_elts_per_layer = 30;
  pc.elt.record_count = 500;
  pc.elt.mean_loss = 5.0e5;
  pc.elt.terms.retention = 2.0e4;
  pc.elt.terms.limit = 1.0e8;
  pc.seed = derive_seed(0, 4);  // fixed, see above
  ara::Portfolio portfolio = ara::synth::generate_portfolio(catalogue, pc);
  return {std::move(catalogue), std::move(yet), std::move(portfolio)};
}

// book_tail's metric query: both scopes, five quantiles, six return
// periods and capital allocation.
MetricsSpec book_spec() {
  MetricsSpec spec = MetricsSpec::all();
  spec.quantiles = {0.9, 0.95, 0.99, 0.995, 0.999};
  spec.return_periods = {10.0, 25.0, 50.0, 100.0, 250.0, 500.0};
  return spec;
}

// Computed size of the dense double tables the engines bind: one slot
// per catalogue event for every ELT a layer references, in MiB.
double computed_tables_mib(const ara::Portfolio& portfolio) {
  std::vector<bool> referenced(portfolio.elt_count(), false);
  for (const ara::Layer& layer : portfolio.layers()) {
    for (const std::size_t e : layer.elt_indices) referenced[e] = true;
  }
  const auto distinct = static_cast<double>(
      std::count(referenced.begin(), referenced.end(), true));
  return distinct * (portfolio.catalogue_size() + 1.0) * sizeof(double) /
         (1024.0 * 1024.0);
}

void print_fingerprint(const std::string& dataset, const ara::Yet& yet,
                       const ara::Portfolio& portfolio) {
  const ara::OpCounts ops = ara::count_fused_algorithm_ops(portfolio, yet);
  std::printf("# input %s trials=%zu occurrences=%zu layers=%zu elts=%zu "
              "elt_lookups=%llu tables_mib=%.1f yet_crc32c=%08x "
              "elts_crc32c=%08x\n",
              dataset.c_str(), yet.trial_count(), yet.occurrence_count(),
              portfolio.layer_count(), portfolio.elt_count(),
              static_cast<unsigned long long>(ops.elt_lookups),
              computed_tables_mib(portfolio), fingerprint(yet),
              fingerprint(portfolio));
}

void print_host(const Options& opt, std::size_t workers) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# host nproc=%u l2_kib=%zu llc_kib=%zu build=%s "
              "probe_ms=%.3f workers=%zu\n",
              std::thread::hardware_concurrency(), cache_kib(2), cache_kib(3),
              PERFBENCH_BUILD_TYPE, host_probe_ms(), workers);
}

// Every metric of the per-layer list, so a traced run of any workload
// reports the full set; a layer a workload does not exercise reads 0.
std::vector<Metric> per_layer_defaults() {
  return {
      {"synth.gen_s", 0, "s"},          {"tables.build_s", 0, "s"},
      {"tables.mb", 0, "MB"},           {"kernel.busy_s", 0, "s"},
      {"kernel.lookups", 0, "count"},   {"kernel.lookups_per_s", 0, "1/s"},
      {"kernel.bytes_computed", 0, "B"}, {"kernel.seq_busy_s", 0, "s"},
      {"parallel.efficiency", 0, "ratio"}, {"shard.count", 0, "count"},
      {"shard.merge_s", 0, "s"},        {"session.replay_s", 0, "s"},
      {"session.self_s", 0, "s"},       {"metrics.reduce_s", 0, "s"},
      {"metrics.blocks", 0, "count"},   {"metrics.reservoir_entries", 0, "count"},
      {"serve.queue_ms.p50", 0, "ms"},  {"serve.queue_ms.p90", 0, "ms"},
      {"serve.service_ms.p50", 0, "ms"}, {"serve.backpressure", 0, "count"},
      {"protocol.transport_ms.p50", 0, "ms"}, {"protocol.encode_us", 0, "us"},
      {"protocol.decode_us", 0, "us"},  {"protocol.reply_bytes", 0, "B"},
      {"loadgen.late_ms.p90", 0, "ms"}, {"trace.overhead", 0, "ratio"},
  };
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

// Computed bytes one analysis moves: occurrences read, table reads and
// YLT writes (annual + max-occurrence per layer and trial). Cache
// misses are ignored.
double bytes_computed(const ara::OpCounts& ops, std::size_t layers,
                      std::size_t trials) {
  return static_cast<double>(ops.event_fetches) * sizeof(ara::EventOccurrence) +
         static_cast<double>(ops.elt_lookups) * sizeof(double) +
         static_cast<double>(layers * trials) * 2.0 * sizeof(double);
}

// ---- Batch workloads ------------------------------------------------------

struct BatchWorkload {
  std::function<Scenario(std::uint64_t)> make;
  ExecutionPolicy policy;
  MetricsSpec spec;
  YltRetention retention = YltRetention::kKeep;
  std::size_t shards = 1;  ///< shard count the policy aims for
  int warmups = 1;  ///< warm-up analyses per set-up (>= ~0.2 s of work)
};

AnalysisRequest batch_request(const BatchWorkload& w, const Scenario& s) {
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  request.metrics = w.spec;
  request.ylt_retention = w.retention;
  ExecutionPolicy policy = w.policy;
  if (w.shards > 1) {
    policy.shard_trials = (s.yet.trial_count() + w.shards - 1) / w.shards;
  }
  request.policy = policy;
  return request;
}

// What a batch analysis answers: its kept YLT (empty unless kKeep) and
// its metrics.
struct BatchAnswer {
  ara::Ylt ylt;
  MetricsReport metrics;
};

bool identical_answers(const BatchAnswer& a, const BatchAnswer& b) {
  return same_ylt(a.ylt, b.ylt) && identical_reports(a.metrics, b.metrics);
}

// The replica's shared resources: its own tables, engine and pools.
struct ReplicaResources {
  const ara::TableStore<double>* tables = nullptr;
  const ara::Engine* engine = nullptr;
  ara::parallel::ThreadPool* compute_pool = nullptr;
  ara::parallel::ThreadPool* shard_pool = nullptr;
};

// The traced analysis: the work AnalysisSession::run performs for the
// request, driven through each layer's public functions with one span
// per call under `root`, so each layer is timed from outside the
// program.
BatchAnswer run_replica(Tracer& tracer, int root, std::uint64_t id,
                        const AnalysisRequest& request,
                        const ara::ShardPlan& plan, const ReplicaResources& res) {
  const ara::Portfolio& portfolio = *request.portfolio;
  const ara::Yet& yet = *request.yet;
  const std::vector<std::string> labels = layer_labels(portfolio);
  ara::EngineContext ctx;
  ctx.tables_f64 = res.tables;
  if (request.policy->engine == EngineKind::kMultiCore) ctx.pool = res.compute_pool;

  BatchAnswer out;
  if (plan.shard_count() == 1) {
    ara::SimulationResult sim;
    {
      ScopedSpan span(tracer, "kernel.run", root, id);
      sim = res.engine->run(portfolio, yet, ctx);
    }
    {
      ScopedSpan span(tracer, "metrics.compute", root, id);
      out.metrics = ara::metrics::compute_metrics(sim.ylt, labels, request.metrics);
    }
    if (request.ylt_retention == YltRetention::kKeep) out.ylt = std::move(sim.ylt);
    return out;
  }

  ara::metrics::StreamingMetricsReducer reducer(labels, yet.trial_count(),
                                                request.metrics);
  ara::ShardMerger merger(portfolio.layer_count(), yet.trial_count(), nullptr,
                          /*materialize=*/false);
  {
    ScopedSpan wave(tracer, "parallel.wave", root, id);
    ara::parallel::parallel_for(
        *res.shard_pool, plan.shard_count(),
        [&](ara::parallel::Range shards) {
          for (std::size_t i = shards.begin; i < shards.end; ++i) {
            ara::EngineContext shard_ctx = ctx;
            shard_ctx.trials = plan.shard(i);
            ara::SimulationResult partial;
            {
              ScopedSpan span(tracer, "kernel.run", wave.id(), id);
              partial = res.engine->run(portfolio, yet, shard_ctx);
            }
            {
              ScopedSpan span(tracer, "metrics.consume", wave.id(), id);
              reducer.consume(partial.ylt, partial.trial_begin);
            }
            ScopedSpan span(tracer, "shard.add", wave.id(), id);
            merger.add(partial);
          }
        },
        ara::parallel::Schedule::kDynamic, /*chunk=*/1);
  }
  {
    ScopedSpan span(tracer, "shard.finish", root, id);
    (void)merger.finish();
  }
  {
    ScopedSpan span(tracer, "session.replay", root, id);
    ara::EngineContext cost_ctx;
    cost_ctx.cost_only = true;
    (void)res.engine->run(portfolio, yet, cost_ctx);
  }
  ScopedSpan span(tracer, "metrics.finish", root, id);
  out.metrics = reducer.finish();
  return out;
}

// Per-analysis figures of the traced run, from its spans.
struct TracedAnalysis {
  double session_s = 0.0;        ///< AnalysisSession::run wall
  double replica_s = 0.0;        ///< traced replica wall
  double parallel_wall_s = 0.0;  ///< the shard wave (or monolithic kernel) wall
  std::map<std::string, double> busy;  ///< summed span time by name
};

std::map<std::uint64_t, TracedAnalysis> traced_analyses(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, TracedAnalysis> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request == 0) continue;  // set-up and baseline spans
    TracedAnalysis& a = out[s.request];
    if (s.name == "session.run") {
      a.session_s = s.duration();
    } else if (s.name == "replica") {
      a.replica_s = s.duration();
    } else {
      a.busy[s.name] += s.duration();
      const bool monolithic_kernel =
          s.name == "kernel.run" &&
          spans[static_cast<std::size_t>(s.parent)].name == "replica";
      if (s.name == "parallel.wave" || monolithic_kernel) {
        a.parallel_wall_s = s.duration();
      }
    }
  }
  return out;
}

double median_of(const std::map<std::uint64_t, TracedAnalysis>& analyses,
                 const std::function<double(const TracedAnalysis&)>& f) {
  std::vector<double> v;
  for (const auto& [id, a] : analyses) v.push_back(f(a));
  return median(v);
}

double busy_of(const TracedAnalysis& a, const std::string& name) {
  const auto it = a.busy.find(name);
  return it == a.busy.end() ? 0.0 : it->second;
}

Outcome run_batch(const Options& opt, const BatchWorkload& w) {
  const std::size_t workers = worker_count();
  print_host(opt, workers);
  std::printf("# pools session_workers=%zu compute=%zu shard=%zu\n", workers,
              workers, workers);
  Tracer tracer(opt.trace);
  AnswerLog<BatchAnswer> answers(identical_answers);
  auto answer_of = [&](AnalysisResult&& r) {
    return answers.add({std::move(r.simulation.ylt), std::move(r.metrics)});
  };

  std::vector<double> setup_s;
  std::vector<double> synth_s;
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<AnalysisSession> session;
  AnalysisRequest request;
  std::string engine_name;
  std::string simd_isa;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    scenario.reset();
    ::malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "synth.gen");
      scenario = std::make_unique<Scenario>(w.make(opt.seed));
    }
    synth_s.push_back(seconds_between(t0, Clock::now()));
    request = batch_request(w, *scenario);
    {
      ScopedSpan span(tracer, "session.warmup");
      session = std::make_unique<AnalysisSession>(w.policy, workers);
      for (int k = 0; k < w.warmups; ++k) {
        AnalysisResult r = session->run(request);
        engine_name = r.simulation.engine_name;
        simd_isa = r.simulation.simd_isa;
        answer_of(std::move(r));
      }
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Scenario& s = *scenario;
  print_fingerprint(opt.workload, s.yet, s.portfolio);
  const ara::ShardPlan plan = session->shard_plan(s.portfolio, s.yet, *request.policy);
  std::printf("# engine=%s simd_isa=%s shards=%zu\n", engine_name.c_str(),
              simd_isa.c_str(), plan.shard_count());

  // Traced runs give the replica its own tables, engine and pools.
  std::unique_ptr<ara::TableStore<double>> tables;
  std::unique_ptr<ara::Engine> engine;
  std::unique_ptr<ara::parallel::ThreadPool> compute_pool;
  std::unique_ptr<ara::parallel::ThreadPool> shard_pool;
  double tables_build_s = 0.0;
  if (opt.trace) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "tables.build");
      tables = std::make_unique<ara::TableStore<double>>(
          ara::build_tables<double>(s.portfolio));
    }
    tables_build_s = seconds_between(t0, Clock::now());
    engine = ara::make_engine(*request.policy);
    compute_pool = std::make_unique<ara::parallel::ThreadPool>(workers);
    shard_pool = std::make_unique<ara::parallel::ThreadPool>(workers);
  }
  const ReplicaResources res{tables.get(), engine.get(), compute_pool.get(),
                             shard_pool.get()};

  for (int k = 0; k < kSteadyWarmups; ++k) answer_of(session->run(request));

  // Timed phase: one caller, analyses back to back. Traced runs follow
  // each analysis with its traced replica and the same replica with a
  // disabled tracer, the base of trace.overhead.
  Tracer untraced(false);
  std::vector<double> latency_s;
  std::vector<double> engine_phase_s;  ///< simulation.wall_seconds per analysis
  std::vector<double> untraced_replica_s;
  std::vector<std::size_t> sample_answer;
  ara::OpCounts ops;
  std::uint64_t trials = 0;
  const Clock::time_point start = Clock::now();
  const auto stop_at = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt.seconds));
  for (std::uint64_t id = 1; Clock::now() < stop_at; ++id) {
    const Clock::time_point t0 = Clock::now();
    const int span = tracer.begin("session.run", -1, id);
    AnalysisResult r = session->run(request);
    tracer.end(span);
    latency_s.push_back(seconds_between(t0, Clock::now()));
    engine_phase_s.push_back(r.simulation.wall_seconds);
    trials += s.yet.trial_count();
    ops = r.simulation.ops;
    sample_answer.push_back(answer_of(std::move(r)));
    if (opt.trace) {
      {
        ScopedSpan root(tracer, "replica", -1, id);
        answers.add(run_replica(tracer, root.id(), id, request, plan, res));
      }
      const Clock::time_point u0 = Clock::now();
      answers.add(run_replica(untraced, -1, id, request, plan, res));
      untraced_replica_s.push_back(seconds_between(u0, Clock::now()));
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const double peak_mib = peak_rss_mib();

  // One-thread baseline of the same analysis (traced runs only).
  double seq_s = 0.0;
  if (opt.trace) {
    ara::EngineContext ctx;
    ctx.tables_f64 = tables.get();
    const ara::FusedSequentialEngine sequential;
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(tracer, "kernel.seq");
      const Clock::time_point t0 = Clock::now();
      (void)sequential.run(s.portfolio, s.yet, ctx);
      runs.push_back(seconds_between(t0, Clock::now()));
    }
    seq_s = median(runs);
  }
  session.reset();
  tables.reset();

  // Correctness gate: the independent oracle, outside every timed phase.
  std::vector<BatchAnswer>& distinct = answers.distinct();
  if (opt.inject_wrong_answer) corrupt(distinct.back().metrics);
  const ara::ReferenceEngine reference;
  const ara::SimulationResult want = reference.run(s.portfolio, s.yet);
  const MetricsReport want_report =
      reference_report(want.ylt, layer_labels(s.portfolio), w.spec);
  print_mean_family_error(
      opt.workload, distinct,
      ara::metrics::compute_metrics(want.ylt, layer_labels(s.portfolio), w.spec),
      want_report, [](const BatchAnswer& a) -> const MetricsReport& { return a.metrics; });
  std::vector<bool> answer_ok;
  for (const BatchAnswer& a : distinct) {
    std::string why;
    bool ok = same_report(a.metrics, want_report, why);
    if (ok && w.retention == YltRetention::kKeep && !same_ylt(a.ylt, want.ylt)) {
      ok = false;
      why = "YLT differs";
    }
    if (!ok) std::printf("# WRONG ANSWER vs sequential_reference: %s\n", why.c_str());
    answer_ok.push_back(ok);
  }
  Outcome out;
  out.correct = std::all_of(answer_ok.begin(), answer_ok.end(), [](bool b) { return b; });
  const std::size_t samples = latency_s.size();
  const auto matched = static_cast<std::size_t>(std::count_if(
      sample_answer.begin(), sample_answer.end(),
      [&](std::size_t a) { return answer_ok[a]; }));
  out.attempted = samples;
  std::printf("# samples=%zu matched=%zu distinct_answers=%zu "
              "trials_per_analysis=%zu elt_lookups=%llu wall_s=%.3f "
              "probe_ms=%.3f\n",
              samples, matched, distinct.size(), s.yet.trial_count(),
              static_cast<unsigned long long>(ops.elt_lookups), wall,
              host_probe_ms());

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"trials_per_s", static_cast<double>(trials) / wall, "trials/s"},
        {"latency_ms.p50", ms(nearest_rank(latency_s, 0.5)), "ms"},
        {"latency_ms.p90", ms(nearest_rank(latency_s, 0.9)), "ms"},
        {"ok_ratio", static_cast<double>(matched) / static_cast<double>(samples),
         "ratio"},
        {"peak_rss_mb", peak_mib, "MB"},
    };
    return out;
  }

  const std::vector<Span> spans = tracer.spans();
  if (!opt.spans_path.empty()) tracer.write_json(opt.spans_path);
  const std::map<std::uint64_t, TracedAnalysis> analyses = traced_analyses(spans);
  const double kernel_busy = median_of(
      analyses, [](const TracedAnalysis& a) { return busy_of(a, "kernel.run"); });
  const double parallel_wall =
      median_of(analyses, [](const TracedAnalysis& a) { return a.parallel_wall_s; });
  const MetricsReport& report = distinct.front().metrics;

  std::vector<Metric> m = per_layer_defaults();
  set_metric(m, "synth.gen_s", median(synth_s));
  set_metric(m, "tables.build_s", tables_build_s);
  set_metric(m, "tables.mb", computed_tables_mib(s.portfolio));
  set_metric(m, "kernel.busy_s", kernel_busy);
  set_metric(m, "kernel.lookups", static_cast<double>(ops.elt_lookups));
  set_metric(m, "kernel.lookups_per_s",
             static_cast<double>(ops.elt_lookups) / kernel_busy);
  set_metric(m, "kernel.bytes_computed",
             bytes_computed(ops, s.portfolio.layer_count(), s.yet.trial_count()));
  set_metric(m, "kernel.seq_busy_s", seq_s);
  set_metric(m, "parallel.efficiency",
             seq_s / (static_cast<double>(workers) * parallel_wall));
  set_metric(m, "shard.count", static_cast<double>(plan.shard_count()));
  set_metric(m, "shard.merge_s", median_of(analyses, [](const TracedAnalysis& a) {
               return busy_of(a, "shard.add") + busy_of(a, "shard.finish");
             }));
  set_metric(m, "session.replay_s", median_of(analyses, [](const TracedAnalysis& a) {
               return busy_of(a, "session.replay");
             }));
  // The session's wall and its engine phase (the shard wave with merge
  // and block consumption, or the monolithic Engine::run) come from the
  // same AnalysisSession::run call; the cost-only replay and the metric
  // finish inside it are not visible from outside, so the replica's
  // times for them are subtracted as estimates.
  std::vector<double> session_self_s;
  for (const auto& [id, a] : analyses) {
    session_self_s.push_back(
        a.session_s - engine_phase_s[id - 1] - busy_of(a, "session.replay") -
        busy_of(a, "metrics.finish") - busy_of(a, "metrics.compute"));
  }
  set_metric(m, "session.self_s", median(session_self_s));
  set_metric(m, "metrics.reduce_s", median_of(analyses, [](const TracedAnalysis& a) {
               return busy_of(a, "metrics.compute") + busy_of(a, "metrics.consume") +
                      busy_of(a, "metrics.finish");
             }));
  set_metric(m, "metrics.blocks", static_cast<double>(report.blocks_consumed));
  set_metric(m, "metrics.reservoir_entries",
             static_cast<double>(report.reservoir_entries));
  set_metric(m, "trace.overhead",
             median_of(analyses, [](const TracedAnalysis& a) { return a.replica_s; }) /
                     median(untraced_replica_s) -
                 1.0);
  out.metrics = std::move(m);
  return out;
}

BatchWorkload paper_headline() {
  BatchWorkload w;
  w.make = [](std::uint64_t seed) {
    return paper_shape(2000000, 20000, 2000, seed);
  };
  w.policy = ExecutionPolicy::with_engine(EngineKind::kMultiCore);
  w.spec = MetricsSpec::layer_summaries();
  w.retention = YltRetention::kKeep;
  return w;
}

BatchWorkload book_tail() {
  BatchWorkload w;
  w.make = [](std::uint64_t seed) { return book_shape(48000, seed); };
  w.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  w.spec = book_spec();
  w.retention = YltRetention::kDiscard;
  w.shards = 16;
  w.warmups = 2;
  return w;
}

// ---- serve_paced ----------------------------------------------------------

namespace serve = ara::serve;

constexpr std::size_t kDispatchSlots = 2;  // ara_serve's default
// Open-loop arrivals at about a sixth of the two slots' capacity (~58
// requests/s on a 4-vCPU Xeon VM). Low, because queueing amplifies
// host-speed drift: over 5 runs on that VM a tenant's queue-time p90
// ranged from 0.7 to 29 ms at 15/s and the latency p90 spread 26%; at
// 10/s the queue-time p90 stayed under 3.5 ms and the latency p90, which
// then follows the service time, spread 14%. With --seconds 36 the open
// loop sends 216 requests.
constexpr double kArrivalRateHz = 10.0;
constexpr double kOpenLoopShare = 0.6;     // of --seconds; the rest saturated
// Sizes the saturated phase: about what the two slots serve per second
// on a 4-vCPU Xeon VM (~58), so the phase lasts about its share of
// --seconds there.
constexpr double kSaturatedRateHz = 55.0;
// The open-loop and saturated phases alternate in this many rounds, so
// each samples the whole run: host speed drifts over tens of seconds.
constexpr std::size_t kRounds = 3;
constexpr double kLatencyLimitMs = 250.0;  // ok_ratio's per-request limit
// Warm-up analyses per dataset in each set-up: enough deterministic work
// that setup_s sits well above timer and scheduler noise.
constexpr int kWarmupsPerDataset = 4;
// Each request asks for this many shards (ServeRequest::shard_trials),
// which the session's shard pool takes dynamically, so one request is
// spread over every worker. Run on one thread, a request's service time
// followed whichever core it landed on: over 5 alternating pairs of
// runs the latency p90 spread 16.7% unsharded and 10.3% in 8 shards
// (with both tenants' trial counts doubled, to the sizes below).
constexpr std::size_t kRequestShards = 8;
constexpr std::size_t kNoAnswer = static_cast<std::size_t>(-1);

struct Tenant {
  std::string name;
  std::uint32_t weight = 1;
  MetricsSpec spec;
  std::shared_ptr<const serve::ServedWorkload> data;
};

// A tenant's metrics as one answer of the serve workload.
struct TenantAnswer {
  std::size_t tenant = 0;
  MetricsReport report;
};

using ServeAnswers = AnswerLog<TenantAnswer>;

std::shared_ptr<ServeAnswers> make_serve_answers() {
  return std::make_shared<ServeAnswers>(
      [](const TenantAnswer& a, const TenantAnswer& b) {
        return a.tenant == b.tenant && identical_reports(a.report, b.report);
      });
}

// One reply as the client saw it; its metrics live in the answer log.
struct Reply {
  serve::ServeReply reply;  ///< report moved out to the answer log
  std::size_t tenant = 0;
  std::size_t answer = kNoAnswer;
  double sent = 0.0;  ///< seconds after the phase epoch
  double replied = 0.0;
};

Reply logged_reply(const serve::ServeReply& r, std::size_t tenant,
                   ServeAnswers& answers) {
  Reply out;
  out.reply = r;
  out.tenant = tenant;
  if (r.status == serve::Status::kOk) {
    out.answer = answers.add({tenant, std::move(out.reply.report)});
  }
  out.reply.report = MetricsReport{};
  return out;
}

serve::ServeRequest serve_request(const Tenant& t, std::uint64_t id) {
  serve::ServeRequest r;
  r.tenant = t.name;
  r.request_id = id;
  r.workload = serve::WorkloadRef::kDataset;
  r.dataset = t.name;
  r.metrics = t.spec;
  r.shard_trials = (t.data->yet.trial_count() + kRequestShards - 1) / kRequestShards;
  return r;
}

// The service stack of one set-up: service, server and one connection,
// torn down client first.
struct ServeStack {
  std::unique_ptr<serve::AnalysisService> service;
  std::unique_ptr<serve::ServeServer> server;
  std::unique_ptr<serve::ClientTransport> client;
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    if (client) client->finish(std::chrono::milliseconds(5000));
    client.reset();
    if (server) server->stop();
    server.reset();
    service.reset();
  }
};

serve::ServeReply call(serve::ClientTransport& client, serve::ServeRequest request) {
  auto promise = std::make_shared<std::promise<serve::ServeReply>>();
  std::future<serve::ServeReply> reply = promise->get_future();
  client.submit(std::move(request), [promise](const serve::ServeReply& r) {
    promise->set_value(r);
  });
  return reply.get();
}

// Sends `count` requests, request i from tenant pattern[i % size],
// keeping `depth` outstanding; returns the replies and the phase wall
// from first send to last reply.
std::vector<Reply> closed_loop(serve::ClientTransport& client,
                               const std::vector<Tenant>& tenants,
                               std::size_t count,
                               const std::vector<std::size_t>& pattern,
                               std::size_t depth, std::uint64_t first_id,
                               const std::shared_ptr<ServeAnswers>& answers,
                               double& wall) {
  // Shared with the reply callbacks, which the transport may run late.
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Reply> replies;
    std::size_t outstanding = 0;
    std::size_t done = 0;
  };
  const auto shared = std::make_shared<Shared>();
  shared->replies.resize(count);
  const Clock::time_point epoch = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    {
      std::unique_lock<std::mutex> lock(shared->mutex);
      shared->cv.wait(lock, [&] { return shared->outstanding < depth; });
      ++shared->outstanding;
    }
    const double sent = seconds_between(epoch, Clock::now());
    const std::size_t tenant = pattern[i % pattern.size()];
    client.submit(serve_request(tenants[tenant], first_id + i),
                  [shared, answers, epoch, sent, tenant, i](const serve::ServeReply& r) {
                    const double t = seconds_between(epoch, Clock::now());
                    Reply reply = logged_reply(r, tenant, *answers);
                    reply.sent = sent;
                    reply.replied = t;
                    std::lock_guard<std::mutex> lock(shared->mutex);
                    shared->replies[i] = std::move(reply);
                    --shared->outstanding;
                    ++shared->done;
                    shared->cv.notify_all();
                  });
  }
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->cv.wait(lock, [&] { return shared->done == count; });
  wall = 0.0;
  for (const Reply& r : shared->replies) wall = std::max(wall, r.replied);
  return shared->replies;
}

struct OpenLoopResult {
  std::vector<Reply> replies;
  OpenLoopTiming timing;
};

OpenLoopResult open_loop(serve::ClientTransport& client,
                         const std::vector<Tenant>& tenants,
                         const std::vector<Arrival>& schedule,
                         std::uint64_t first_id,
                         const std::shared_ptr<ServeAnswers>& answers) {
  // Shared with the reply callbacks, which may run after a timeout.
  struct Shared {
    std::mutex mutex;
    std::vector<Reply> replies;
  };
  const auto shared = std::make_shared<Shared>();
  shared->replies.resize(schedule.size());
  OpenLoopResult out;
  out.timing = run_open_loop(
      schedule,
      [&](std::size_t i, std::function<void()> on_reply) {
        const std::size_t tenant = schedule[i].tenant;
        client.submit(serve_request(tenants[tenant], first_id + i),
                      [shared, answers, tenant, i, on_reply](const serve::ServeReply& r) {
                        Reply reply = logged_reply(r, tenant, *answers);
                        {
                          std::lock_guard<std::mutex> lock(shared->mutex);
                          shared->replies[i] = std::move(reply);
                        }
                        on_reply();
                      });
      },
      std::chrono::milliseconds(60000));
  std::lock_guard<std::mutex> lock(shared->mutex);
  out.replies = std::move(shared->replies);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    out.replies[i].sent = out.timing.sent[i];
    out.replies[i].replied = out.timing.replied[i];
  }
  return out;
}

Outcome run_serve(const Options& opt) {
  const std::size_t workers = worker_count();
  print_host(opt, workers);
  std::printf("# pools session_workers=%zu dispatch_slots=%zu connections=1 "
              "generator_threads=1\n",
              workers, kDispatchSlots);
  Tracer tracer(opt.trace);
  const std::shared_ptr<ServeAnswers> answers = make_serve_answers();

  std::vector<Tenant> tenants(2);
  tenants[0].name = "quotes";
  tenants[0].weight = 2;
  tenants[0].spec = MetricsSpec::layer_summaries();
  tenants[1].name = "risk";
  tenants[1].weight = 1;
  tenants[1].spec = book_spec();

  serve::AnalysisService::Options options;
  options.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  options.session_workers = workers;
  options.max_inflight = kDispatchSlots;

  std::vector<double> setup_s;
  std::vector<double> synth_s;
  std::unique_ptr<ServeStack> stack;
  std::vector<Reply> warmups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    for (Tenant& t : tenants) t.data.reset();
    ::malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "synth.gen");
      // quotes: paper-shaped, 15 ELTs, 1000 events/trial, 20k catalogue.
      // risk: the book_tail shape. Sized so both tenants' requests hold
      // a dispatch slot for about as long (one latency mode, not two).
      Scenario quotes = paper_shape(20000, 200, 1000, derive_seed(opt.seed, 10));
      Scenario risk = book_shape(8000, derive_seed(opt.seed, 11));
      tenants[0].data = std::make_shared<const serve::ServedWorkload>(
          serve::ServedWorkload{std::move(quotes.yet), std::move(quotes.portfolio)});
      tenants[1].data = std::make_shared<const serve::ServedWorkload>(
          serve::ServedWorkload{std::move(risk.yet), std::move(risk.portfolio)});
    }
    synth_s.push_back(seconds_between(t0, Clock::now()));
    ScopedSpan span(tracer, "serve.start");
    stack = std::make_unique<ServeStack>();
    stack->service = std::make_unique<serve::AnalysisService>(options);
    for (const Tenant& t : tenants) {
      stack->service->configure_tenant({t.name, t.weight, 64});
      stack->service->register_dataset(t.name, t.data);
    }
    serve::Endpoint endpoint;
    endpoint.kind = serve::Endpoint::Kind::kUnix;
    endpoint.path = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
    stack->server = std::make_unique<serve::ServeServer>(*stack->service, endpoint);
    stack->server->start();
    stack->client = std::make_unique<serve::ClientTransport>(endpoint);
    for (int k = 0; k < kWarmupsPerDataset; ++k) {
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::ServeReply r =
            call(*stack->client, serve_request(tenants[t], warmups.size() + 1));
        warmups.push_back(logged_reply(r, t, *answers));
      }
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  for (const Tenant& t : tenants) {
    print_fingerprint(t.name, t.data->yet, t.data->portfolio);
  }
  const std::uint64_t schedule_seed = derive_seed(opt.seed, 12);
  const auto open_count = static_cast<std::size_t>(
      kArrivalRateHz * opt.seconds * kOpenLoopShare);
  const auto saturated_count = std::max<std::size_t>(
      8 * kRounds, static_cast<std::size_t>(kSaturatedRateHz * opt.seconds *
                                            (1.0 - kOpenLoopShare)));
  // Tenants send in their weight ratio (quotes, quotes, risk, ...), so
  // the seed moves arrival times and inputs but not the mix.
  const std::vector<std::size_t> pattern = {0, 0, 1};
  const std::vector<Arrival> schedule =
      poisson_schedule(schedule_seed, kArrivalRateHz, open_count, pattern);
  std::printf("# schedule seed=%llu rate_hz=%g open_loop_requests=%zu "
              "saturated_requests=%zu rounds=%zu depth=%zu latency_limit_ms=%g\n",
              static_cast<unsigned long long>(schedule_seed), kArrivalRateHz,
              open_count, saturated_count / kRounds * kRounds, kRounds,
              kDispatchSlots + 2, kLatencyLimitMs);
  std::printf("# engine=%s simd_isa=%s\n", warmups.back().reply.engine.c_str(),
              ara::simd::isa_name(ara::simd::select_kernel<double>(options.policy.simd).isa));

  OpenLoopResult paced;
  std::vector<Reply> saturated;
  double saturated_wall = 0.0;
  std::uint64_t next_id = 100;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // This round's slice of the schedule, due times counted from the
    // arrival before it.
    const std::size_t begin = open_count * round / kRounds;
    const std::size_t end = open_count * (round + 1) / kRounds;
    std::vector<Arrival> slice(schedule.begin() + begin, schedule.begin() + end);
    const double base = begin == 0 ? 0.0 : schedule[begin - 1].due;
    for (Arrival& a : slice) a.due -= base;
    OpenLoopResult part = open_loop(*stack->client, tenants, slice, next_id, answers);
    next_id += slice.size();
    for (std::size_t i = 0; i < slice.size(); ++i) {
      paced.replies.push_back(std::move(part.replies[i]));
      paced.timing.due.push_back(part.timing.due[i]);
      paced.timing.sent.push_back(part.timing.sent[i]);
      paced.timing.replied.push_back(part.timing.replied[i]);
    }
    double wall = 0.0;
    const std::size_t count = saturated_count / kRounds;
    std::vector<Reply> closed = closed_loop(*stack->client, tenants, count, pattern,
                                            kDispatchSlots + 2, next_id, answers, wall);
    next_id += count;
    saturated_wall += wall;
    for (Reply& r : closed) saturated.push_back(std::move(r));
  }
  const double peak_mib = peak_rss_mib();
  std::uint64_t backpressure = 0;
  for (const serve::TenantStats& t : stack->service->stats()) {
    const serve::TenantCounters& q = t.queueing;
    backpressure += q.rejected_queue_full + q.rejected_bytes + q.shed_early +
                    q.shed_deadline;
  }
  stack.reset();

  // Correctness gate against the oracle, one reference per dataset.
  std::vector<TenantAnswer>& distinct = answers->distinct();
  if (opt.inject_wrong_answer) corrupt(distinct.back().report);
  std::vector<MetricsReport> want;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const ara::ReferenceEngine reference;
    const ara::Portfolio& portfolio = tenants[t].data->portfolio;
    const ara::SimulationResult r = reference.run(portfolio, tenants[t].data->yet);
    want.push_back(reference_report(r.ylt, layer_labels(portfolio), tenants[t].spec));
    std::vector<TenantAnswer> mine;
    for (const TenantAnswer& a : distinct) {
      if (a.tenant == t) mine.push_back(a);
    }
    print_mean_family_error(
        tenants[t].name, mine,
        ara::metrics::compute_metrics(r.ylt, layer_labels(portfolio), tenants[t].spec),
        want.back(), [](const TenantAnswer& a) -> const MetricsReport& { return a.report; });
  }
  std::vector<bool> answer_ok;
  for (const TenantAnswer& a : distinct) {
    std::string why;
    const bool ok = same_report(a.report, want[a.tenant], why);
    if (!ok) {
      std::printf("# WRONG ANSWER vs sequential_reference: %s %s\n",
                  tenants[a.tenant].name.c_str(), why.c_str());
    }
    answer_ok.push_back(ok);
  }
  Outcome out;
  out.correct = std::all_of(answer_ok.begin(), answer_ok.end(), [](bool b) { return b; });
  auto matched = [&](const Reply& r) {
    return r.answer != kNoAnswer && answer_ok[r.answer];
  };

  std::size_t ok_samples = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < paced.replies.size(); ++i) {
    late_ms.push_back(ms(paced.timing.lateness(i)));
    if (!matched(paced.replies[i])) continue;
    latency_ms.push_back(ms(paced.timing.latency(i)));
    if (latency_ms.back() <= kLatencyLimitMs) ++ok_samples;
  }
  std::uint64_t saturated_trials = 0;
  for (const Reply& r : saturated) {
    if (matched(r)) saturated_trials += tenants[r.tenant].data->yet.trial_count();
  }
  auto not_ok = [](const Reply& r) { return r.reply.status != serve::Status::kOk; };
  out.failed = static_cast<std::uint64_t>(
      std::count_if(paced.replies.begin(), paced.replies.end(), not_ok) +
      std::count_if(saturated.begin(), saturated.end(), not_ok));
  out.attempted = paced.replies.size() + saturated.size();
  if (latency_ms.empty()) throw std::runtime_error("serve_paced: no OK reply");
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::vector<double> service, latency, queue, other;
    for (std::size_t i = 0; i < paced.replies.size(); ++i) {
      const Reply& r = paced.replies[i];
      if (r.tenant != t || r.reply.status != serve::Status::kOk) continue;
      service.push_back(ms(r.reply.wall_seconds));
      latency.push_back(ms(paced.timing.latency(i)));
      queue.push_back(r.reply.queue_ms);
      other.push_back(latency.back() - service.back() - queue.back());
    }
    if (service.empty()) continue;
    std::printf("# tenant %s requests=%zu latency_ms.p50=%.3f p90=%.3f "
                "service_ms.p50=%.3f p90=%.3f queue_ms.p90=%.3f "
                "other_ms.p50=%.3f p90=%.3f\n",
                tenants[t].name.c_str(), service.size(), median(latency),
                nearest_rank(latency, 0.9), median(service),
                nearest_rank(service, 0.9), nearest_rank(queue, 0.9),
                median(other), nearest_rank(other, 0.9));
  }
  std::printf("# samples=%zu ok=%zu saturated=%zu saturated_wall_s=%.3f "
              "distinct_answers=%zu probe_ms=%.3f\n",
              paced.replies.size(), latency_ms.size(), saturated.size(),
              saturated_wall, distinct.size(), host_probe_ms());

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"trials_per_s", static_cast<double>(saturated_trials) / saturated_wall,
         "trials/s"},
        {"latency_ms.p50", nearest_rank(latency_ms, 0.5), "ms"},
        {"latency_ms.p90", nearest_rank(latency_ms, 0.9), "ms"},
        {"ok_ratio",
         static_cast<double>(ok_samples) / static_cast<double>(paced.replies.size()),
         "ratio"},
        {"peak_rss_mb", peak_mib, "MB"},
    };
    return out;
  }

  // Per-layer figures of the traced open loop: server-reported queue and
  // service times, the client's view of the rest, and the codec timed
  // here on the same requests and replies.
  std::vector<double> lookups;
  std::vector<double> bytes;
  for (const Tenant& t : tenants) {
    const ara::OpCounts ops =
        ara::count_fused_algorithm_ops(t.data->portfolio, t.data->yet);
    lookups.push_back(static_cast<double>(ops.elt_lookups));
    bytes.push_back(bytes_computed(ops, t.data->portfolio.layer_count(),
                                   t.data->yet.trial_count()));
  }
  std::vector<double> queue_ms, service_ms, transport_ms, encode_us, decode_us;
  double reply_bytes = 0.0, busy_s = 0.0, lookups_sum = 0.0, bytes_sum = 0.0;
  double shards = 0.0, blocks = 0.0, reservoir = 0.0;
  std::size_t ok = 0;
  for (const Reply& r : paced.replies) {
    if (!matched(r)) continue;
    ++ok;
    const double service = ms(r.reply.wall_seconds);
    queue_ms.push_back(r.reply.queue_ms);
    service_ms.push_back(service);
    transport_ms.push_back(ms(r.replied - r.sent) - r.reply.queue_ms - service);
    busy_s += r.reply.wall_seconds;
    lookups_sum += lookups[r.tenant];
    bytes_sum += bytes[r.tenant];
    shards += static_cast<double>(r.reply.shard_count);

    serve::ServeReply full = r.reply;
    full.report = distinct[r.answer].report;
    blocks += static_cast<double>(full.report.blocks_consumed);
    reservoir += static_cast<double>(full.report.reservoir_entries);
    const serve::ServeRequest request =
        serve_request(tenants[r.tenant], full.request_id);
    const Clock::time_point t0 = Clock::now();
    const std::string request_wire = serve::encode_request(request);
    const std::string reply_wire = serve::encode_reply(full);
    const Clock::time_point t1 = Clock::now();
    (void)serve::decode_request(request_wire);
    (void)serve::decode_reply(reply_wire);
    const Clock::time_point t2 = Clock::now();
    encode_us.push_back(seconds_between(t0, t1) * 1e6);
    decode_us.push_back(seconds_between(t1, t2) * 1e6);
    reply_bytes += static_cast<double>(reply_wire.size());
  }
  const double n = static_cast<double>(ok);
  double build_s = 0.0;
  double tables_mb = 0.0;
  for (const Tenant& t : tenants) {
    ScopedSpan span(tracer, "tables.build");
    const Clock::time_point t0 = Clock::now();
    (void)ara::build_tables<double>(t.data->portfolio);
    build_s += seconds_between(t0, Clock::now());
    tables_mb += computed_tables_mib(t.data->portfolio);
  }
  if (!opt.spans_path.empty()) tracer.write_json(opt.spans_path);

  std::vector<Metric> m = per_layer_defaults();
  set_metric(m, "synth.gen_s", median(synth_s));
  set_metric(m, "tables.build_s", build_s);
  set_metric(m, "tables.mb", tables_mb);
  set_metric(m, "kernel.busy_s", busy_s / n);
  set_metric(m, "kernel.lookups", lookups_sum / n);
  set_metric(m, "kernel.lookups_per_s", lookups_sum / busy_s);
  set_metric(m, "kernel.bytes_computed", bytes_sum / n);
  set_metric(m, "shard.count", shards / n);
  set_metric(m, "metrics.blocks", blocks / n);
  set_metric(m, "metrics.reservoir_entries", reservoir / n);
  set_metric(m, "serve.queue_ms.p50", nearest_rank(queue_ms, 0.5));
  set_metric(m, "serve.queue_ms.p90", nearest_rank(queue_ms, 0.9));
  set_metric(m, "serve.service_ms.p50", nearest_rank(service_ms, 0.5));
  set_metric(m, "serve.backpressure", static_cast<double>(backpressure));
  set_metric(m, "protocol.transport_ms.p50", nearest_rank(transport_ms, 0.5));
  set_metric(m, "protocol.encode_us", median(encode_us));
  set_metric(m, "protocol.decode_us", median(decode_us));
  set_metric(m, "protocol.reply_bytes", reply_bytes / n);
  set_metric(m, "loadgen.late_ms.p90", nearest_rank(late_ms, 0.9));
  // Nothing is traced inside the open and closed loops (their figures
  // come from ServeReply, the client's clocks and the codec timed
  // afterwards), so they run the untraced code and trace.overhead is 0.
  set_metric(m, "trace.overhead", 0.0);
  out.metrics = std::move(m);
  return out;
}

// ---- Entry ----------------------------------------------------------------

void print_result(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_headline|book_tail|serve_paced --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--inject-wrong-answer]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        opt.spans_path = value();
      } else if (arg == "--inject-wrong-answer") {
        opt.inject_wrong_answer = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty() || !have_trace) usage("--workload and --trace are required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds out of range");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc gives threads that allocate at once arenas of their own, and
  // which threads share one depends on timing: the peak RSS of identical
  // serve_paced runs varied from 36 to 42 MB. With two arenas it repeats
  // within ~2%, so peak_rss_mb follows the program's live data.
  ::mallopt(M_ARENA_MAX, 2);
  const Options opt = parse(argc, argv);
  try {
    Outcome out;
    if (opt.workload == "paper_headline") {
      out = run_batch(opt, paper_headline());
    } else if (opt.workload == "book_tail") {
      out = run_batch(opt, book_tail());
    } else if (opt.workload == "serve_paced") {
      out = run_serve(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
    std::fflush(stdout);
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
