// Service latency/fairness bench: an in-process AnalysisService under
// open-loop Poisson load from three tenants, repeated for several
// weight configurations, emitted as BENCH_service.json — the repo's
// record of what multi-tenant queueing costs and what DWRR buys.
//
// Fairness is measured where DWRR actually guarantees it: over the
// interval where every tenant's queue is backlogged. A sampler thread
// snapshots the scheduler's served-trials counters; the bench takes
// the first and last all-backlogged snapshots and compares each
// tenant's served-trials delta, normalised by weight, against the
// mean. (Final ok counts alone can't show fairness without deadlines:
// everything admitted is eventually served.)
//
// --smoke shrinks the workload for ctest and turns the run into a
// gate: zero lost replies, every tenant served, and — when the
// backlogged window is long enough to be meaningful — per-weight
// served shares within tolerance.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/loadgen.hpp"
#include "serve/service.hpp"

namespace ara::serve::bench {
namespace {

struct WeightConfig {
  std::string name;
  std::vector<std::uint32_t> weights;
  std::uint64_t deadline_ms = 0;  ///< per-request deadline (0 = none)
};

struct FairnessWindow {
  bool valid = false;              ///< window long enough to judge
  double window_trials = 0.0;      ///< total served trials inside it
  double max_rel_error = 0.0;      ///< worst per-weight share deviation
  double max_abs_error = 0.0;      ///< worst |served - weight| share gap
  std::vector<double> served_share;
  std::vector<double> weight_share;
};

struct CaseResult {
  WeightConfig config;
  LoadReport load;
  FairnessWindow fairness;
  std::vector<TenantStats> stats;
};

// One sampler snapshot: per-tenant (queued depth, served trials).
struct Snapshot {
  std::vector<std::uint64_t> queued;
  std::vector<std::uint64_t> served_trials;
  bool all_backlogged = false;
};

Snapshot snapshot_of(const AnalysisService& service,
                     const std::vector<std::string>& tenants) {
  Snapshot snap;
  const std::vector<TenantStats> stats = service.stats();
  snap.queued.resize(tenants.size(), 0);
  snap.served_trials.resize(tenants.size(), 0);
  std::size_t seen = 0;
  for (const TenantStats& t : stats) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (t.name != tenants[i]) continue;
      const TenantCounters& q = t.queueing;
      snap.queued[i] = q.admitted - q.served - q.shed_deadline;
      snap.served_trials[i] = q.served_trials;
      ++seen;
    }
  }
  snap.all_backlogged = seen == tenants.size();
  for (const std::uint64_t depth : snap.queued) {
    if (depth == 0) snap.all_backlogged = false;
  }
  return snap;
}

FairnessWindow fairness_from(const std::vector<Snapshot>& snaps,
                             const std::vector<std::uint32_t>& weights,
                             std::uint64_t quantum_trials) {
  FairnessWindow out;
  const Snapshot* first = nullptr;
  const Snapshot* last = nullptr;
  for (const Snapshot& snap : snaps) {
    if (!snap.all_backlogged) continue;
    if (first == nullptr) first = &snap;
    last = &snap;
  }
  if (first == nullptr || last == first) return out;

  double weight_sum = 0.0;
  for (const std::uint32_t w : weights) weight_sum += w;
  double total = 0.0;
  std::vector<double> delta(weights.size(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    delta[i] = static_cast<double>(last->served_trials[i] -
                                   first->served_trials[i]);
    total += delta[i];
  }
  out.window_trials = total;
  // Under ~8 quanta of service the +/- one-quantum-per-tenant DWRR
  // slack swamps the signal; report the window but don't judge it.
  out.valid = total >= 8.0 * static_cast<double>(quantum_trials);
  if (total <= 0.0) {
    out.valid = false;
    return out;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double served_share = delta[i] / total;
    const double weight_share = weights[i] / weight_sum;
    out.served_share.push_back(served_share);
    out.weight_share.push_back(weight_share);
    const double rel = std::abs(served_share - weight_share) / weight_share;
    out.max_rel_error = std::max(out.max_rel_error, rel);
    out.max_abs_error =
        std::max(out.max_abs_error, std::abs(served_share - weight_share));
  }
  return out;
}

CaseResult run_case(const WeightConfig& config, bool smoke) {
  SynthSpec synth;
  synth.trials = smoke ? 4096 : 8192;
  synth.events_per_trial = 25.0;
  synth.catalogue = 500;
  synth.elts = 2;
  synth.layers = 1;
  synth.seed = 11;

  AnalysisService::Options options;
  options.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  options.session_workers = 2;
  // One dispatch slot: completion order is exactly DWRR order, so the
  // fairness window measures the scheduler and nothing else.
  options.max_inflight = 1;
  options.quantum_trials = synth.trials;
  options.global_byte_budget = 0;  // depth caps only; no WRED noise
  // Smoke admits each tenant's whole burst (no rejects — the gate
  // judges fairness over the drain, and request counts scale with
  // weight so every queue drains at the same instant no matter how
  // fast the engine is). Full mode keeps the shallow production-like
  // caps so the committed bench exercises depth-cap rejects.
  const std::uint32_t depth_cap = smoke ? 512 : 64;
  options.default_tenant.max_queue_depth = depth_cap;
  AnalysisService service(options);

  LoadConfig load;
  load.seed = 2013;
  std::vector<std::string> tenant_names;
  for (std::size_t i = 0; i < config.weights.size(); ++i) {
    LoadTenantSpec spec;
    spec.name = "t" + std::to_string(i) + "_w" +
                std::to_string(config.weights[i]);
    spec.weight = config.weights[i];
    // Offered far above the per-tenant service share so every queue
    // stays backlogged while arrivals last (the DWRR regime). Request
    // counts scale with weight so the heavy tenants' arrival phases —
    // and with them the all-backlogged fairness window — last as long
    // as the light tenants' queues do. The rates must beat the heavy
    // tenant's service share with headroom: the layer-event sweep
    // serves a smoke request in about 0.1 ms, so at 3200 Hz the
    // weight-8 tenant drained between arrivals and punched holes in
    // the backlogged window (share error 0.15-0.19 against 0.08), as
    // 800/400 Hz had done for an earlier, slower sweep.
    spec.rate_hz = smoke ? 12800.0 : 1600.0;
    spec.requests = (smoke ? 40 : 150) * config.weights[i];
    spec.deadline_ms = config.deadline_ms;
    spec.synth = synth;
    tenant_names.push_back(spec.name);
    TenantConfig tenant;
    tenant.name = spec.name;
    tenant.weight = spec.weight;
    tenant.max_queue_depth = depth_cap;
    service.configure_tenant(tenant);
    load.tenants.push_back(std::move(spec));
  }

  // Warm the synth-workload and table caches outside the measurement:
  // the first request pays generator + table-build time that belongs
  // to neither the queueing model nor any one tenant.
  {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    ServeRequest warm;
    warm.tenant = tenant_names[0];
    warm.request_id = ~0ull;
    warm.synth = synth;
    service.submit(std::move(warm), [&](ServeReply&&) {
      std::lock_guard<std::mutex> lock(m);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done; });
  }

  std::atomic<bool> stop_sampler{false};
  std::vector<Snapshot> snaps;
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      snaps.push_back(snapshot_of(service, tenant_names));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  const SubmitFn submit = [&](ServeRequest&& request,
                              std::function<void(const ServeReply&)> done) {
    service.submit(std::move(request),
                   [done = std::move(done)](ServeReply&& reply) {
                     done(reply);
                   });
  };

  CaseResult result;
  result.config = config;
  result.load = run_load(load, submit);
  stop_sampler = true;
  sampler.join();
  service.drain();
  result.stats = service.stats();
  result.fairness =
      fairness_from(snaps, config.weights, options.quantum_trials);
  service.stop();
  return result;
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                bool smoke) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"bench_service\",\n"
      << "  \"unit\": \"milliseconds_latency\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"cases\": [\n";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CaseResult& cr = cases[c];
    out << "    {\"name\": \"" << cr.config.name << "\", "
        << "\"deadline_ms\": " << cr.config.deadline_ms << ", "
        << "\"wall_seconds\": " << cr.load.wall_seconds << ", "
        << "\"total_ok\": " << cr.load.total_ok << ", "
        << "\"total_backpressure\": " << cr.load.total_backpressure << ", "
        << "\"total_shed_deadline\": " << cr.load.total_shed_deadline << ", "
        << "\"total_lost\": " << cr.load.total_lost << ", "
        << "\"fairness_window_trials\": " << cr.fairness.window_trials << ", "
        << "\"fairness_window_valid\": "
        << (cr.fairness.valid ? "true" : "false") << ", "
        << "\"fairness_max_rel_error\": " << cr.fairness.max_rel_error << ", "
        << "\"fairness_max_abs_error\": " << cr.fairness.max_abs_error
        << ",\n     \"tenants\": [\n";
    for (std::size_t i = 0; i < cr.load.tenants.size(); ++i) {
      const TenantLoadReport& t = cr.load.tenants[i];
      out << "      {\"tenant\": \"" << t.name << "\", \"weight\": "
          << t.weight << ", \"submitted\": " << t.submitted
          << ", \"ok\": " << t.ok << ", \"rejected\": "
          << (t.rejected_queue_full + t.rejected_bytes)
          << ", \"shed_early\": " << t.shed_early
          << ", \"shed_deadline\": " << t.shed_deadline
          << ", \"lost\": " << t.lost
          << ", \"throughput_rps\": " << t.throughput_rps
          << ", \"p50_ms\": " << t.latency.p50
          << ", \"p95_ms\": " << t.latency.p95
          << ", \"p99_ms\": " << t.latency.p99
          << ", \"mean_ms\": " << t.latency.mean
          << ", \"max_ms\": " << t.latency.max;
      if (i < cr.fairness.served_share.size()) {
        out << ", \"served_share\": " << cr.fairness.served_share[i]
            << ", \"weight_share\": " << cr.fairness.weight_share[i];
      }
      out << "}" << (i + 1 < cr.load.tenants.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (c + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  std::vector<WeightConfig> configs = {
      {"equal_1_1_1", {1, 1, 1}, 0},
      {"weighted_1_2_4", {1, 2, 4}, 0},
      // The skewed config also carries a deadline in full mode so the
      // committed bench shows deadline shedding under starvation (the
      // light tenants' 64-deep queues drain at ~a tenth of capacity,
      // so their tail waits cross 500 ms while the weight-8 tenant's
      // never do).
      {"skewed_1_1_8", {1, 1, 8}, smoke ? 0u : 500u},
  };

  std::vector<CaseResult> cases;
  bool gate_failed = false;
  for (const WeightConfig& config : configs) {
    CaseResult result = run_case(config, smoke);
    std::cout << result.config.name << ": ok " << result.load.total_ok << "/"
              << result.load.total_submitted << ", backpressure "
              << result.load.total_backpressure << ", deadline-shed "
              << result.load.total_shed_deadline << ", lost "
              << result.load.total_lost << ", fairness window "
              << result.fairness.window_trials << " trials, share err abs "
              << result.fairness.max_abs_error << " / rel "
              << result.fairness.max_rel_error
              << (result.fairness.valid ? "" : " (window too short)") << "\n";
    for (const TenantLoadReport& t : result.load.tenants) {
      std::cout << "  " << t.name << ": ok " << t.ok << ", p50 "
                << t.latency.p50 << " ms, p95 " << t.latency.p95
                << " ms, p99 " << t.latency.p99 << " ms\n";
    }

    // The gate: no reply may go missing, every tenant must be served,
    // and a judgeable backlogged window must match the weights.
    if (result.load.total_lost != 0) {
      std::cerr << "GATE: lost replies in " << config.name << "\n";
      gate_failed = true;
    }
    for (const TenantLoadReport& t : result.load.tenants) {
      if (t.ok == 0) {
        std::cerr << "GATE: tenant " << t.name << " starved in "
                  << config.name << "\n";
        gate_failed = true;
      }
    }
    // Absolute share error: a relative bound would amplify snapshot
    // noise on a light tenant's small share into false failures.
    if (result.fairness.valid && result.fairness.max_abs_error > 0.08) {
      std::cerr << "GATE: fairness share error "
                << result.fairness.max_abs_error << " above 0.08 in "
                << config.name << "\n";
      gate_failed = true;
    }
    cases.push_back(std::move(result));
  }

  write_json(out_path, cases, smoke);
  std::cout << "wrote " << out_path << "\n";
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace ara::serve::bench

int main(int argc, char** argv) {
  return ara::serve::bench::run(argc, argv);
}
