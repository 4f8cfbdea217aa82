// Chaos recovery contract (DESIGN.md §9 failure matrix): under every
// injected failure — worker crash mid-shard, stall past the lease
// timeout, torn frame, bit-flipped block, and a real SIGKILL from
// outside — the distributed run must still produce a result bitwise
// identical to the monolithic one, with zero lost or double-merged
// trial ranges, and the recovery must be *visible* in the counters
// (leases_reassigned > 0, plus the failure-specific counter). The
// injected failures ride the core/failpoint.hpp registry and skip
// when failpoints are compiled out (Release); the SIGKILL test always
// runs.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_factory.hpp"
#include "core/failpoint.hpp"
#include "core/session.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace ara::dist {
namespace {

serve::SynthSpec chaos_spec(std::uint64_t trials) {
  serve::SynthSpec spec;
  spec.trials = trials;
  spec.events_per_trial = 8.0;
  spec.catalogue = 600;
  spec.elts = 3;
  spec.layers = 2;
  spec.seed = 1913;
  return spec;
}

DistConfig chaos_config(const serve::SynthSpec& spec, const std::string& tag,
                        std::uint64_t lease_trials,
                        std::uint64_t lease_timeout_ms) {
  const ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  DistConfig config;
  config.endpoint = serve::Endpoint::parse(
      "unix:/tmp/ara_test_chaos_" + std::to_string(::getpid()) + "_" + tag +
      ".sock");
  config.job.workload = JobWorkload::kSynth;
  config.job.synth = spec;
  config.job.engine = engine_kind_name(EngineKind::kSequentialFused);
  config.job.simd = static_cast<std::uint8_t>(policy.simd);
  config.job.simd_width = policy.simd_width;
  config.job.trial_count = spec.trials;
  config.job.layer_count = spec.layers;
  config.job.heartbeat_ms = 50;
  config.lease_trials = lease_trials;
  config.lease_timeout_ms = lease_timeout_ms;
  config.expected_workers = 2;
  return config;
}

/// Forks an ara_worker. A `held` worker stops itself before it execs
/// (the call returns once it has stopped) and starts only on SIGCONT.
pid_t spawn_worker(const serve::Endpoint& endpoint, const std::string& id,
                   const char* failpoints, bool held = false) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (held) ::raise(SIGSTOP);
    const std::string ep = endpoint.describe();
    // --max-attempts 4 bounds the tail of tests where a worker ends up
    // retrying against a coordinator that already finished without it.
    if (failpoints != nullptr) {
      ::execl(ARA_WORKER_BIN, "ara_worker", "--connect", ep.c_str(), "--id",
              id.c_str(), "--max-attempts", "4", "--failpoints", failpoints,
              static_cast<char*>(nullptr));
    } else {
      ::execl(ARA_WORKER_BIN, "ara_worker", "--connect", ep.c_str(), "--id",
              id.c_str(), "--max-attempts", "4",
              static_cast<char*>(nullptr));
    }
    ::_exit(127);
  }
  if (held) {
    int status = 0;
    ::waitpid(pid, &status, WUNTRACED);
  }
  return pid;
}

int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int reap(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return exit_code(status);
}

SimulationResult monolithic(const serve::SynthSpec& spec) {
  const serve::ServedWorkload w = serve::materialize_synth(spec);
  const auto engine = make_engine(
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  return engine->run(w.portfolio, w.yet);
}

void expect_bitwise(const DistResult& result, const SimulationResult& mono) {
  EXPECT_EQ(result.analysis.simulation.ylt.annual_raw(),
            mono.ylt.annual_raw());
  EXPECT_EQ(result.analysis.simulation.ylt.max_occurrence_raw(),
            mono.ylt.max_occurrence_raw());
  EXPECT_EQ(result.analysis.simulation.ops, mono.ops);
}

AnalysisRequest metrics_request() {
  AnalysisRequest request;
  request.metrics = MetricsSpec::layer_summaries();
  return request;
}

/// Spawns two workers with the given failpoint spec, runs the
/// coordinator to completion, and reaps both workers.
DistResult run_with_failpoints(const DistConfig& config,
                               const char* failpoints) {
  ShardCoordinator coordinator(config);
  const pid_t w1 = spawn_worker(coordinator.endpoint(), "chaos_1",
                                failpoints);
  const pid_t w2 = spawn_worker(coordinator.endpoint(), "chaos_2",
                                failpoints);
  const DistResult result = coordinator.run(metrics_request());
  reap(w1);
  reap(w2);
  return result;
}

TEST(DistChaos, CrashMidShardFallsBackAndStaysBitwise) {
  if (!fail::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Both workers die silently after computing their first shard — the
  // worst moment: the work is done, the coordinator never hears about
  // it. Every range must end up executed by the local fallback.
  //
  // Both must have joined before the fleet is gone, or the fallback
  // finishes every range and the late worker is told done. So the first
  // crash is held on the coordinator's live counters, not a clock: each
  // worker pauses 300 ms between its shard and its crash, the second
  // worker starts stopped, and once the first holds a lease it is
  // stopped in turn, the second released, and the first resumed only
  // when both have joined.
  const serve::SynthSpec spec = chaos_spec(600);
  const DistConfig config = chaos_config(spec, "crash", 100, 800);
  const char* failpoints =
      "worker.stall=1:1:300:1;worker.crash_mid_shard=1";
  ShardCoordinator coordinator(config);
  const pid_t first =
      spawn_worker(coordinator.endpoint(), "chaos_1", failpoints);
  const pid_t second = spawn_worker(coordinator.endpoint(), "chaos_2",
                                    failpoints, /*held=*/true);
  int first_exit = -1;  // set when the hold finds the first worker gone
  std::string hold_error;
  std::thread holder([&] {
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    const auto await = [&](auto reached) {
      while (!reached()) {
        if (Clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    };
    if (!await([&] { return coordinator.counters().leases_granted >= 1; })) {
      hold_error = "the first worker never took a lease within 60 s";
    } else {
      ::kill(first, SIGSTOP);
      int status = 0;
      ::waitpid(first, &status, WUNTRACED);
      if (!WIFSTOPPED(status)) {
        first_exit = exit_code(status);
        hold_error = "the first worker crashed before it could be held";
      }
    }
    ::kill(second, SIGCONT);
    if (!await([&] { return coordinator.counters().workers_joined >= 2; })) {
      hold_error = "the second worker never joined within 60 s";
    }
    if (first_exit < 0) ::kill(first, SIGCONT);
  });
  const DistResult result = coordinator.run(metrics_request());
  holder.join();
  if (!hold_error.empty()) ADD_FAILURE() << hold_error;
  const std::vector<int> exits = {first_exit < 0 ? reap(first) : first_exit,
                                  reap(second)};

  EXPECT_EQ(exits[0], 137);
  EXPECT_EQ(exits[1], 137);
  EXPECT_EQ(result.counters.workers_lost, 2u);
  EXPECT_GE(result.counters.leases_reassigned, 2u);
  // Every range accepted exactly once — all of them via the local
  // fallback (the dead workers never delivered a byte).
  EXPECT_EQ(result.counters.blocks_accepted, 6u);  // 600 trials / 100
  EXPECT_EQ(result.counters.local_shards, 6u);
  expect_bitwise(result, monolithic(spec));
}

TEST(DistChaos, StallPastLeaseTimeoutReassignsTheLease) {
  if (!fail::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // The stalled worker goes quiet (heartbeats included) with its shard
  // computed but unsent; the lease expires and reassigns. The stall
  // then lifts and the straggler block arrives anyway — byte-identical
  // to the reassigned execution (determinism is the arbiter), so it is
  // discarded as a duplicate rather than double-merged. A conflict
  // would poison the run and fail this test loudly.
  const serve::SynthSpec spec = chaos_spec(600);
  const DistConfig config = chaos_config(spec, "stall", 100, 400);
  const DistResult result = run_with_failpoints(
      config, "worker.stall=1:5:1200:1");

  EXPECT_GE(result.counters.leases_reassigned, 1u);
  EXPECT_EQ(result.counters.blocks_accepted, 6u);
  EXPECT_EQ(result.counters.corrupt_blocks, 0u);
  expect_bitwise(result, monolithic(spec));
}

TEST(DistChaos, TornFrameDropsTheConnectionAndRecovers) {
  if (!fail::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Half a block frame then a slammed connection: the coordinator's
  // framing layer must throw (never merge a prefix), count the tear,
  // requeue the lease, and let the worker reconnect and finish. The
  // workload is big enough that the run outlives the ~100ms reconnect
  // backoff, so the recovery is (usually) a rejoin, not just the
  // local fallback racing ahead.
  serve::SynthSpec spec = chaos_spec(4000);
  spec.events_per_trial = 30.0;
  const DistConfig config = chaos_config(spec, "torn", 500, 800);
  const DistResult result = run_with_failpoints(
      config, "stream.torn_frame=1:7:0:1");

  EXPECT_EQ(result.counters.torn_frames, 2u);
  EXPECT_GE(result.counters.leases_reassigned, 2u);
  EXPECT_EQ(result.counters.blocks_accepted, 8u);  // 4000 trials / 500
  expect_bitwise(result, monolithic(spec));
}

TEST(DistChaos, BitFlippedBlockIsDiscardedNeverMerged) {
  if (!fail::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // One flipped bit inside an otherwise well-framed block: the CRC32C
  // trailer catches it at the coordinator, the block is discarded and
  // counted, the lying worker dropped, the lease reassigned. The final
  // rows must be the true ones.
  serve::SynthSpec spec = chaos_spec(4000);
  spec.events_per_trial = 30.0;
  const DistConfig config = chaos_config(spec, "flip", 500, 800);
  const DistResult result = run_with_failpoints(
      config, "block.bit_flip=1:9:0:1");

  EXPECT_EQ(result.counters.corrupt_blocks, 2u);
  EXPECT_GE(result.counters.leases_reassigned, 2u);
  EXPECT_EQ(result.counters.blocks_accepted, 8u);  // 4000 trials / 500
  expect_bitwise(result, monolithic(spec));
}

TEST(DistChaos, ExternalSigkillIsRecovered) {
  // No failpoints: a real `kill -9` from outside while the run is in
  // flight. Works in Release builds too. The signal fires on observed
  // lease state, not on a clock, so it lands mid-run whatever the build
  // flavour (Debug, TSan, Release) does to absolute speed.
  serve::SynthSpec spec = chaos_spec(10000);
  spec.events_per_trial = 100.0;
  const serve::ServedWorkload w = serve::materialize_synth(spec);
  const auto engine = make_engine(
      ExecutionPolicy::with_engine(EngineKind::kSequentialFused));
  const SimulationResult mono = engine->run(w.portfolio, w.yet);

  const DistConfig config = chaos_config(spec, "sigkill", 250, 800);
  ShardCoordinator coordinator(config);
  // The victim runs the fleet alone until the signal; the survivor
  // only joins afterwards. So whenever the coordinator has granted more
  // leases than it has accepted blocks, the outstanding lease is the
  // victim's. The victim is stopped first and the counters read again
  // after a settle, so a block already on the wire is accepted before
  // the decision: the kill lands only while the victim still holds a
  // lease, with at most 20 of the 40 blocks accepted.
  const pid_t victim = spawn_worker(coordinator.endpoint(), "victim",
                                    nullptr);
  pid_t survivor = -1;
  std::string killer_error;
  std::thread killer([&] {
    using Clock = std::chrono::steady_clock;
    const auto victim_owns_lease = [&] {
      const DistCounters c = coordinator.counters();
      return c.leases_granted > c.blocks_accepted && c.blocks_accepted <= 20;
    };
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    bool killed = false;
    while (Clock::now() < deadline &&
           coordinator.counters().blocks_accepted <= 20) {
      if (victim_owns_lease()) {
        ::kill(victim, SIGSTOP);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (victim_owns_lease()) {
          ::kill(victim, SIGKILL);
          killed = true;
          break;
        }
        ::kill(victim, SIGCONT);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (killed) {
      survivor = spawn_worker(coordinator.endpoint(), "survivor", nullptr);
      return;
    }
    const DistCounters c = coordinator.counters();
    killer_error = "the victim never held a lease with at most 20 of 40 "
                   "blocks accepted within 60 s (leases_granted=" +
                   std::to_string(c.leases_granted) + ", blocks_accepted=" +
                   std::to_string(c.blocks_accepted) + ")";
    // Let run() finish on the local fallback instead of hanging.
    ::kill(victim, SIGKILL);
  });
  const DistResult result = coordinator.run(metrics_request());
  killer.join();
  if (!killer_error.empty()) ADD_FAILURE() << killer_error;
  EXPECT_EQ(reap(victim), 128 + SIGKILL);
  EXPECT_EQ(reap(survivor), 0);

  EXPECT_GE(result.counters.workers_lost, 1u);
  EXPECT_GE(result.counters.leases_reassigned, 1u);
  EXPECT_EQ(result.counters.blocks_accepted, 40u);  // 10000 trials / 250
  expect_bitwise(result, mono);
}

}  // namespace
}  // namespace ara::dist
