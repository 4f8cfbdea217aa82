// The distributed-run contract (DESIGN.md §9): a ShardCoordinator
// fronting real ara_worker processes must produce an analysis bitwise
// identical to the monolithic single-process run — for every engine
// kind — with every trial leased exactly once. Plus the wire layer
// underneath it (payload codecs, the block CRC trailer) and the shared
// backoff curve, and the idempotent-completion algebra driven by a
// test that hand-speaks the protocol: a byte-identical re-completion
// is discarded and counted, a conflicting one poisons the run loudly.
#include "dist/coordinator.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_factory.hpp"
#include "core/session.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "report_identity.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace ara::dist {
namespace {

using serve::MessageType;

serve::SynthSpec tiny_spec() {
  serve::SynthSpec spec;
  spec.trials = 240;
  spec.events_per_trial = 6.0;
  spec.catalogue = 400;
  spec.elts = 3;
  spec.layers = 2;
  spec.seed = 77;
  return spec;
}

JobSpec job_for(const serve::SynthSpec& spec, EngineKind kind) {
  const ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
  JobSpec job;
  job.workload = JobWorkload::kSynth;
  job.synth = spec;
  job.engine = engine_kind_name(kind);
  job.simd = static_cast<std::uint8_t>(policy.simd);
  job.simd_width = policy.simd_width;
  job.trial_count = spec.trials;
  job.layer_count = spec.layers;
  job.heartbeat_ms = 50;
  return job;
}

serve::Endpoint unique_endpoint(const std::string& tag) {
  return serve::Endpoint::parse("unix:/tmp/ara_test_dist_" +
                                std::to_string(::getpid()) + "_" + tag +
                                ".sock");
}

SimulationResult monolithic(const serve::SynthSpec& spec, EngineKind kind) {
  const serve::ServedWorkload w = serve::materialize_synth(spec);
  const auto engine = make_engine(ExecutionPolicy::with_engine(kind));
  return engine->run(w.portfolio, w.yet);
}

pid_t spawn_worker(const serve::Endpoint& endpoint, const std::string& id) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(ARA_WORKER_BIN, "ara_worker", "--connect",
            endpoint.describe().c_str(), "--id", id.c_str(), "--seed",
            id.c_str() + id.size() - 1, static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

int reap(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

AnalysisRequest metrics_request() {
  AnalysisRequest request;
  request.metrics = MetricsSpec::layer_summaries();
  return request;
}

// ---- wire layer ----------------------------------------------------

TEST(DistProtocol, PayloadCodecsRoundTrip) {
  Hello hello;
  hello.worker_id = "w-роба-1";  // identities are opaque bytes
  hello.pid = 424242;
  const Hello hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.worker_id, hello.worker_id);
  EXPECT_EQ(hello2.pid, hello.pid);

  JobSpec job = job_for(tiny_spec(), EngineKind::kSequentialFused);
  job.workload = JobWorkload::kFiles;
  job.yet_path = "/data/yet.bin";
  job.portfolio_path = "/data/portfolio.bin";
  const JobSpec job2 = decode_job(encode_job(job));
  EXPECT_EQ(job2.workload, job.workload);
  EXPECT_EQ(job2.synth, job.synth);
  EXPECT_EQ(job2.yet_path, job.yet_path);
  EXPECT_EQ(job2.portfolio_path, job.portfolio_path);
  EXPECT_EQ(job2.engine, job.engine);
  EXPECT_EQ(job2.simd, job.simd);
  EXPECT_EQ(job2.simd_width, job.simd_width);
  EXPECT_EQ(job2.trial_count, job.trial_count);
  EXPECT_EQ(job2.layer_count, job.layer_count);
  EXPECT_EQ(job2.heartbeat_ms, job.heartbeat_ms);

  LeaseGrant grant;
  grant.kind = GrantKind::kRange;
  grant.lease_id = 9;
  grant.begin = 120;
  grant.end = 180;
  const LeaseGrant grant2 = decode_grant(encode_grant(grant));
  EXPECT_EQ(grant2.kind, grant.kind);
  EXPECT_EQ(grant2.lease_id, grant.lease_id);
  EXPECT_EQ(grant2.begin, grant.begin);
  EXPECT_EQ(grant2.end, grant.end);

  Heartbeat hb;
  hb.lease_id = 7;
  EXPECT_EQ(decode_heartbeat(encode_heartbeat(hb)).lease_id, 7u);
}

TEST(DistProtocol, BlockRoundTripsBitwise) {
  Block block;
  block.lease_id = 3;
  block.trial_begin = 60;
  block.ylt = Ylt(2, 3);
  for (std::size_t a = 0; a < 2; ++a) {
    for (TrialId t = 0; t < 3; ++t) {
      block.ylt.annual_loss(a, t) = 1.25 * static_cast<double>(a * 3 + t);
      block.ylt.max_occurrence_loss(a, t) = 0.5 + static_cast<double>(t);
    }
  }
  block.ops.event_fetches = 11;
  block.ops.elt_lookups = 4;
  block.wall_seconds = 0.125;
  block.simulated_seconds = 2.5;
  block.engine_name = "sequential_fused";
  block.devices = 1;
  block.simd_isa = "scalar";

  const Block b2 = decode_block(encode_block(block));
  EXPECT_EQ(b2.lease_id, block.lease_id);
  EXPECT_EQ(b2.trial_begin, block.trial_begin);
  EXPECT_EQ(b2.ylt.annual_raw(), block.ylt.annual_raw());
  EXPECT_EQ(b2.ylt.max_occurrence_raw(), block.ylt.max_occurrence_raw());
  EXPECT_EQ(b2.ops, block.ops);
  EXPECT_EQ(b2.wall_seconds, block.wall_seconds);
  EXPECT_EQ(b2.simulated_seconds, block.simulated_seconds);
  EXPECT_EQ(b2.engine_name, block.engine_name);
  EXPECT_EQ(b2.devices, block.devices);
  EXPECT_EQ(b2.simd_isa, block.simd_isa);
}

TEST(DistProtocol, BlockChecksumRejectsCorruption) {
  Block block;
  block.lease_id = 1;
  block.trial_begin = 0;
  block.ylt = Ylt(1, 4);
  block.ylt.annual_loss(0, 2) = 3.5;
  block.engine_name = "reference";
  std::string payload = encode_block(block);

  // Any flipped bit — data or the trailer itself — refuses to decode.
  for (const std::size_t offset :
       {std::size_t{0}, payload.size() / 2, payload.size() - 1}) {
    std::string corrupt = payload;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x04);
    EXPECT_THROW(decode_block(corrupt), std::runtime_error)
        << "flip at " << offset;
  }
  // Truncation is corruption too.
  EXPECT_THROW(decode_block(std::string_view(payload).substr(
                   0, payload.size() - 3)),
               std::runtime_error);
  EXPECT_THROW(decode_block(std::string_view(payload).substr(0, 2)),
               std::runtime_error);
  // The untouched payload still decodes.
  EXPECT_EQ(decode_block(payload).ylt.annual_raw(), block.ylt.annual_raw());
}

// ---- backoff curve --------------------------------------------------

TEST(DistBackoff, CappedExponentialWithBoundedJitter) {
  const std::uint64_t base = 50, cap = 2000;
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    std::uint64_t pure = base;
    for (unsigned i = 0; i < attempt && pure < cap; ++i) pure *= 2;
    pure = std::min(pure, cap);
    const std::uint64_t delay = backoff_delay_ms(base, cap, attempt, 9);
    EXPECT_GE(delay, pure) << "attempt " << attempt;
    EXPECT_LE(delay, pure + pure / 4) << "attempt " << attempt;
    // Deterministic: the same (args, seed) always sleeps the same.
    EXPECT_EQ(delay, backoff_delay_ms(base, cap, attempt, 9));
  }
}

TEST(DistBackoff, SeedsDecorrelateWorkers) {
  // Two workers with different seeds must not march in lockstep: over
  // a handful of attempts at least one delay differs.
  bool differs = false;
  for (unsigned attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = backoff_delay_ms(50, 2000, attempt, 1) !=
              backoff_delay_ms(50, 2000, attempt, 2);
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(backoff_delay_ms(0, 0, 5, 3), 0u);  // zero base: no sleep
}

// ---- real workers, every engine kind --------------------------------

TEST(DistCoordinator, DistributedMatchesMonolithicForEveryEngineKind) {
  const serve::SynthSpec spec = tiny_spec();
  for (const EngineKind kind : all_engine_kinds()) {
    const std::string name = engine_kind_name(kind);
    DistConfig config;
    config.endpoint = unique_endpoint("ok_" + name);
    config.job = job_for(spec, kind);
    config.lease_trials = 48;  // 5 leases across 2 workers
    config.lease_timeout_ms = 4000;
    config.expected_workers = 2;
    ShardCoordinator coordinator(config);

    const pid_t w1 = spawn_worker(coordinator.endpoint(), name + "_1");
    const pid_t w2 = spawn_worker(coordinator.endpoint(), name + "_2");
    const DistResult result = coordinator.run(metrics_request());
    EXPECT_EQ(reap(w1), 0) << name;
    EXPECT_EQ(reap(w2), 0) << name;

    const SimulationResult mono = monolithic(spec, kind);
    EXPECT_EQ(result.analysis.simulation.ylt.annual_raw(),
              mono.ylt.annual_raw())
        << name;
    EXPECT_EQ(result.analysis.simulation.ylt.max_occurrence_raw(),
              mono.ylt.max_occurrence_raw())
        << name;
    // The cost-only replay reconstitutes the monolithic accounting.
    EXPECT_EQ(result.analysis.simulation.ops, mono.ops) << name;
    EXPECT_EQ(result.analysis.simulation.simulated_seconds,
              mono.simulated_seconds)
        << name;
    EXPECT_EQ(result.analysis.simulation.engine_name, mono.engine_name)
        << name;

    // Every trial covered exactly once, nothing recovered because
    // nothing failed.
    EXPECT_GE(result.counters.workers_joined, 1u) << name;
    EXPECT_EQ(result.counters.blocks_accepted +
                  result.counters.local_shards,
              5u)
        << name;
    EXPECT_EQ(result.counters.corrupt_blocks, 0u) << name;
    EXPECT_EQ(result.counters.torn_frames, 0u) << name;
    EXPECT_EQ(result.counters.duplicate_blocks, 0u) << name;
  }
}

TEST(DistCoordinator, OneLeaseRunIsMergedAndReplayed) {
  // A local one-shard run adopts its block as the result; a one-lease
  // fleet run must not, because the block crosses the wire without its
  // simulated phase breakdown. The replay restores it.
  const serve::SynthSpec spec = tiny_spec();
  DistConfig config;
  config.endpoint = unique_endpoint("one_lease");
  config.job = job_for(spec, EngineKind::kSequentialFused);
  config.lease_trials = spec.trials;
  config.lease_timeout_ms = 4000;
  config.first_worker_grace_ms = 60000;
  config.expected_workers = 1;
  ShardCoordinator coordinator(config);
  const pid_t worker = spawn_worker(coordinator.endpoint(), "one_1");
  const DistResult result = coordinator.run(metrics_request());
  EXPECT_EQ(reap(worker), 0);

  const SimulationResult mono =
      monolithic(spec, EngineKind::kSequentialFused);
  EXPECT_EQ(result.counters.local_shards, 0u);
  EXPECT_EQ(result.analysis.shard_count, 1u);
  EXPECT_EQ(result.analysis.simulation.ylt.annual_raw(),
            mono.ylt.annual_raw());
  EXPECT_GT(mono.simulated_phases.total(), 0.0);
  EXPECT_EQ(result.analysis.simulation.simulated_phases.total(),
            mono.simulated_phases.total());
  EXPECT_EQ(result.analysis.simulation.simulated_seconds,
            mono.simulated_seconds);
}

// ---- adaptive: the fleet and the shard pool agree --------------------

TEST(DistCoordinator, AdaptiveMatchesSessionAdaptive) {
  // The same stopping spec, wave size and engine through the lease
  // fleet and through the session's shard pool: the oracle sees the
  // same per-trial sample, so both stop at the same frontier (after
  // two frontier extensions) with the same intervals, rows, accounting
  // and metric report.
  serve::SynthSpec spec = tiny_spec();
  spec.trials = 4000;
  constexpr std::uint64_t kBlock = 200;
  metrics::StoppingSpec stopping;
  stopping.relative_tolerance = 0.3;
  const serve::ServedWorkload w = serve::materialize_synth(spec);

  for (const YltRetention retention :
       {YltRetention::kKeep, YltRetention::kDiscard}) {
    const std::string tag =
        retention == YltRetention::kKeep ? "keep" : "discard";
    AnalysisRequest request;
    request.metrics = MetricsSpec::all();
    request.ylt_retention = retention;
    request.stopping = stopping;

    DistConfig config;
    config.endpoint = unique_endpoint("adaptive_" + tag);
    config.job = job_for(spec, EngineKind::kSequentialFused);
    config.lease_trials = kBlock;
    config.lease_timeout_ms = 4000;
    ShardCoordinator coordinator(config);
    const pid_t w1 = spawn_worker(coordinator.endpoint(), tag + "_1");
    const pid_t w2 = spawn_worker(coordinator.endpoint(), tag + "_2");
    const DistResult dist = coordinator.run(request);
    EXPECT_EQ(reap(w1), 0) << tag;
    EXPECT_EQ(reap(w2), 0) << tag;

    AnalysisRequest local = request;
    local.portfolio = &w.portfolio;
    local.yet = &w.yet;
    ExecutionPolicy policy =
        ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
    policy.shard_trials = kBlock;
    local.policy = policy;
    AnalysisSession session;
    const AnalysisResult want = session.run(local);
    const AnalysisResult& got = dist.analysis;

    EXPECT_TRUE(want.stopped_early) << tag;
    EXPECT_EQ(got.shard_count, want.shard_count) << tag;
    EXPECT_EQ(got.trials_executed, want.trials_executed) << tag;
    EXPECT_EQ(got.stopped_early, want.stopped_early) << tag;
    ASSERT_EQ(got.half_widths.size(), want.half_widths.size()) << tag;
    for (std::size_t i = 0; i < want.half_widths.size(); ++i) {
      EXPECT_EQ(got.half_widths[i].trials, want.half_widths[i].trials);
      EXPECT_EQ(got.half_widths[i].estimate, want.half_widths[i].estimate);
      EXPECT_EQ(got.half_widths[i].std_error, want.half_widths[i].std_error);
      EXPECT_EQ(got.half_widths[i].half_width,
                want.half_widths[i].half_width);
      EXPECT_EQ(got.half_widths[i].relative_half_width,
                want.half_widths[i].relative_half_width);
      EXPECT_EQ(got.half_widths[i].satisfied, want.half_widths[i].satisfied);
    }
    EXPECT_EQ(got.simulation.ylt.annual_raw(),
              want.simulation.ylt.annual_raw())
        << tag;
    EXPECT_EQ(got.simulation.ylt.max_occurrence_raw(),
              want.simulation.ylt.max_occurrence_raw())
        << tag;
    EXPECT_EQ(got.simulation.ops, want.simulation.ops) << tag;
    EXPECT_EQ(got.simulation.simulated_seconds,
              want.simulation.simulated_seconds)
        << tag;

    // The whole report, bitwise, and with the lease size equal to the
    // shard size the fleet feeds the reducer the same blocks the shard
    // pool does.
    testdata::expect_report_identical(got.metrics, want.metrics, tag);
    testdata::expect_same_block_accounting(got.metrics, want.metrics, tag);
  }
}

TEST(DistCoordinator, RejectsBadRequestsBeforeAnyWork) {
  // No worker ever connects and the grace window is a minute: a request
  // the run cannot honour must fail at once, naming the offending
  // field, not after the coordinator has priced the workload locally.
  struct Case {
    std::string name;
    std::string field;  ///< must appear in the error
    std::function<void(AnalysisRequest&)> spoil;
  };
  const std::vector<Case> cases = {
      {"quantile", "quantile",
       [](AnalysisRequest& r) { r.metrics.quantiles = {1.5}; }},
      {"pathless_spill", "ylt_path",
       [](AnalysisRequest& r) {
         r.ylt_retention = YltRetention::kSpillToFile;
       }},
      {"reinstatements", "reinstatement_terms",
       [](AnalysisRequest& r) {
         r.reinstatement_terms.assign(2, ext::ReinstatementTerms{});
       }},
      {"secondary", "secondary_uncertainty",
       [](AnalysisRequest& r) {
         r.secondary_uncertainty = ext::SecondaryUncertaintyConfig{};
       }},
      {"no_core", "core_simulation",
       [](AnalysisRequest& r) { r.core_simulation = false; }},
  };
  for (const Case& c : cases) {
    DistConfig config;
    config.endpoint = unique_endpoint("reject_" + c.name);
    config.job = job_for(tiny_spec(), EngineKind::kSequentialFused);
    config.first_worker_grace_ms = 60000;
    ShardCoordinator coordinator(config);
    AnalysisRequest request = metrics_request();
    c.spoil(request);

    const auto started = std::chrono::steady_clock::now();
    try {
      (void)coordinator.run(request);
      ADD_FAILURE() << c.name << ": the coordinator accepted the request";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.name << ": " << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - started,
              std::chrono::seconds(10))
        << c.name;
  }
}

// A worker that reaches the coordinator after the run has finished is
// told done and exits 0 at once: the coordinator answers until it is
// destroyed.
TEST(DistCoordinator, LateWorkerIsToldDone) {
  const serve::SynthSpec spec = tiny_spec();
  DistConfig config;
  config.endpoint = unique_endpoint("late");
  config.job = job_for(spec, EngineKind::kSequentialFused);
  config.lease_trials = 120;
  config.lease_timeout_ms = 4000;
  config.first_worker_grace_ms = 0;  // no fleet: run every lease locally
  config.expected_workers = 1;
  ShardCoordinator coordinator(config);
  const DistResult result = coordinator.run(metrics_request());
  EXPECT_EQ(result.counters.local_shards, 2u);

  const auto started = std::chrono::steady_clock::now();
  const pid_t late = spawn_worker(coordinator.endpoint(), "late_1");
  EXPECT_EQ(reap(late), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5));
  const DistCounters after = coordinator.counters();
  EXPECT_EQ(after.workers_joined, result.counters.workers_joined + 1);
  EXPECT_EQ(after.leases_granted, result.counters.leases_granted);
  EXPECT_EQ(after.workers_lost, 0u);
}

// ---- hand-spoken protocol: idempotent completion ---------------------

/// A test-side client that speaks the lease dialect frame by frame.
struct HandClient {
  explicit HandClient(const serve::Endpoint& endpoint) : client(endpoint) {}
  serve::ServeClient client;

  void send(MessageType type, std::string_view payload) {
    serve::write_frame(client.fd(), type, payload);
  }
  std::string expect(MessageType type) {
    const auto frame = serve::read_frame(client.fd());
    if (!frame || frame->type != type) {
      throw std::runtime_error("unexpected frame");
    }
    return frame->payload;
  }
};

/// The local half a real worker would run: materialize the job, run
/// the granted range, wrap it as a Block.
struct LocalRunner {
  explicit LocalRunner(const JobSpec& job) {
    serve::ServedWorkload w = serve::materialize_synth(job.synth);
    portfolio = std::move(w.portfolio);
    yet = std::move(w.yet);
    engine = make_engine(ExecutionPolicy::with_engine(
        *engine_kind_from_name(job.engine)));
  }

  Block block_for(const LeaseGrant& grant) const {
    EngineContext ctx;
    ctx.trials = TrialRange{static_cast<std::size_t>(grant.begin),
                            static_cast<std::size_t>(grant.end)};
    SimulationResult partial = engine->run(portfolio, yet, ctx);
    Block block;
    block.lease_id = grant.lease_id;
    block.trial_begin = grant.begin;
    block.ylt = std::move(partial.ylt);
    block.ops = partial.ops;
    block.wall_seconds = partial.wall_seconds;
    block.simulated_seconds = partial.simulated_seconds;
    block.engine_name = partial.engine_name;
    block.devices = partial.devices;
    block.simd_isa = partial.simd_isa;
    return block;
  }

  Portfolio portfolio;
  Yet yet;
  std::unique_ptr<Engine> engine;
};

TEST(DistCoordinator, ByteIdenticalRecompletionIsDiscardedAndCounted) {
  const serve::SynthSpec spec = tiny_spec();
  DistConfig config;
  config.endpoint = unique_endpoint("dup");
  config.job = job_for(spec, EngineKind::kSequentialFused);
  config.lease_trials = 120;  // two leases
  config.lease_timeout_ms = 5000;
  config.expected_workers = 1;
  ShardCoordinator coordinator(config);

  DistResult result;
  std::exception_ptr error;
  std::thread runner([&] {
    try {
      result = coordinator.run(metrics_request());
    } catch (...) {
      error = std::current_exception();
    }
  });

  {
    HandClient hc(coordinator.endpoint());
    Hello hello;
    hello.worker_id = "hand";
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hc.send(MessageType::kDistHello, encode_hello(hello));
    const LocalRunner local(decode_job(hc.expect(MessageType::kDistJob)));
    for (;;) {
      hc.send(MessageType::kDistLeaseRequest, "");
      const LeaseGrant grant =
          decode_grant(hc.expect(MessageType::kDistLeaseGrant));
      if (grant.kind == GrantKind::kDone) break;
      if (grant.kind == GrantKind::kWait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(grant.wait_ms));
        continue;
      }
      const std::string payload = encode_block(local.block_for(grant));
      hc.send(MessageType::kDistBlock, payload);
      hc.send(MessageType::kDistBlock, payload);  // exact byte-for-byte redo
    }
  }  // disconnect so the coordinator's drain completes

  runner.join();
  ASSERT_FALSE(error);
  EXPECT_EQ(result.counters.blocks_accepted, 2u);
  EXPECT_EQ(result.counters.duplicate_blocks, 2u);
  EXPECT_EQ(result.counters.corrupt_blocks, 0u);

  const SimulationResult mono =
      monolithic(spec, EngineKind::kSequentialFused);
  EXPECT_EQ(result.analysis.simulation.ylt.annual_raw(),
            mono.ylt.annual_raw());
  EXPECT_EQ(result.analysis.simulation.ylt.max_occurrence_raw(),
            mono.ylt.max_occurrence_raw());
}

TEST(DistCoordinator, ConflictingRecompletionPoisonsTheRunLoudly) {
  const serve::SynthSpec spec = tiny_spec();
  DistConfig config;
  config.endpoint = unique_endpoint("conflict");
  config.job = job_for(spec, EngineKind::kSequentialFused);
  config.lease_trials = 120;
  config.lease_timeout_ms = 5000;
  config.expected_workers = 1;
  ShardCoordinator coordinator(config);

  std::exception_ptr error;
  std::thread runner([&] {
    try {
      (void)coordinator.run(metrics_request());
    } catch (...) {
      error = std::current_exception();
    }
  });

  try {
    HandClient hc(coordinator.endpoint());
    Hello hello;
    hello.worker_id = "liar";
    hello.pid = 1;
    hc.send(MessageType::kDistHello, encode_hello(hello));
    const LocalRunner local(decode_job(hc.expect(MessageType::kDistJob)));
    hc.send(MessageType::kDistLeaseRequest, "");
    const LeaseGrant grant =
        decode_grant(hc.expect(MessageType::kDistLeaseGrant));
    ASSERT_EQ(grant.kind, GrantKind::kRange);

    Block block = local.block_for(grant);
    hc.send(MessageType::kDistBlock, encode_block(block));
    // Same range again, different bits, valid checksum: the two
    // executions disagree and nothing downstream can arbitrate that.
    block.ylt.annual_loss(0, 0) += 1.0;
    hc.send(MessageType::kDistBlock, encode_block(block));
    // Keep the connection open until the coordinator tears it down.
    (void)serve::read_frame(hc.client.fd());
  } catch (const std::exception&) {
    // The coordinator slams the door on a poisoned run; any transport
    // error here is expected collateral.
  }

  runner.join();
  ASSERT_TRUE(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conflicting completions"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[0, 120)"), std::string::npos) << what;
  }
}

// The process's open descriptors, less the one listing them.
std::set<int> open_fds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int listing = ::dirfd(dir);
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != listing) fds.insert(fd);
  }
  ::closedir(dir);
  return fds;
}

// Every socket and pipe the coordinator, the serve server and a
// connected client open is close-on-exec, so an ara_worker forked
// beside them inherits none (a worker holding the coordinator's listen
// socket would keep its backlog alive after the coordinator is gone).
TEST(CloseOnExec, CoordinatorServerAndClientDescriptors) {
  const std::set<int> before = open_fds();
  ASSERT_FALSE(before.empty()) << "/proc/self/fd unreadable";

  DistConfig config;
  config.endpoint = unique_endpoint("cloexec");
  config.job = job_for(tiny_spec(), EngineKind::kSequentialFused);
  ShardCoordinator coordinator(config);
  serve::AnalysisService service;
  serve::ServeServer server(service, unique_endpoint("cloexec_serve"));
  server.start();
  serve::ClientTransport client(server.endpoint());
  for (int i = 0; i < 400 && server.connections_accepted() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.connections_accepted(), 1u);

  std::size_t opened = 0;
  for (const int fd : open_fds()) {
    if (before.count(fd) != 0) continue;
    ++opened;
    const int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0) << "fd " << fd;
    EXPECT_NE(flags & FD_CLOEXEC, 0) << "fd " << fd << " is inherited by exec";
  }
  // Coordinator: listen socket + stop pipe; server: listen socket +
  // stop pipe + accepted connection; client: its socket.
  EXPECT_GE(opened, 8u);
}

}  // namespace
}  // namespace ara::dist
