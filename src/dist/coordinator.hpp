// ShardCoordinator: the lease-fleet RangeExecutor (DESIGN.md §9). It
// owns a listening socket and hands trial-range *leases* to remote
// ara_worker processes; their checksummed result blocks go through the
// same trial-range loop as the session's shard pool
// (core/range_executor.hpp) — merger, metric reducer, spill writer,
// stopping oracle, cost-only replay — so a distributed run is bitwise
// identical to the single-process run, including op counts, simulated
// seconds and the metric report.
//
// Fault model (the whole point):
//   - worker crash / disconnect  -> its open leases reassign instantly
//   - worker stall               -> lease heartbeat deadline expires,
//                                   the lease reassigns; a late block
//                                   from the stalled worker is either
//                                   a byte-identical duplicate
//                                   (discarded, counted) or a
//                                   conflict (loud error)
//   - torn frame                 -> the read loop throws, the
//                                   connection drops, leases reassign
//   - corrupt block (CRC fail)   -> block discarded, worker dropped,
//                                   lease reassigned
//   - all workers lost           -> the coordinator degrades to local
//                                   execution of whatever is uncovered
//   - worker arrives after the   -> told done: the coordinator answers
//     run finished                  until it is destroyed
//
// Completion is idempotent by construction: DisjointRangeSet admits a
// range exactly once, and a range that arrives again must match the
// accepted block's CRC byte for byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "dist/protocol.hpp"
#include "serve/server.hpp"

namespace ara::dist {

struct DistConfig {
  /// Listen address ("unix:PATH" or "HOST:PORT"; TCP port 0 = kernel
  /// picks, see ShardCoordinator::endpoint()).
  serve::Endpoint endpoint;

  JobSpec job;

  /// Trials per lease (0 = derive ~2 leases per expected worker, min 1).
  std::uint64_t lease_trials = 0;

  /// A lease with no heartbeat for this long is considered lost and
  /// its range requeued. Must comfortably exceed job.heartbeat_ms.
  std::uint64_t lease_timeout_ms = 1000;

  /// How long run() waits for a first worker before degrading to
  /// local execution (it also degrades immediately once every
  /// connected worker has been lost).
  std::uint64_t first_worker_grace_ms = 5000;

  /// Expected worker count (lease sizing hint only).
  std::size_t expected_workers = 2;
};

/// Everything that happened during one distributed run. The chaos
/// tests and bench_dist gate on these — recovery must be *visible*,
/// not inferred.
struct DistCounters {
  std::uint64_t workers_joined = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_reassigned = 0;  ///< expiry + disconnect requeues
  std::uint64_t blocks_accepted = 0;
  std::uint64_t duplicate_blocks = 0;  ///< byte-identical re-completions
  std::uint64_t corrupt_blocks = 0;    ///< CRC mismatches discarded
  std::uint64_t torn_frames = 0;       ///< framing errors on worker conns
  std::uint64_t heartbeats = 0;
  std::uint64_t local_shards = 0;  ///< ranges executed by the fallback
};

struct DistResult {
  AnalysisResult analysis;
  DistCounters counters;
};

class ShardCoordinator {
 public:
  /// Binds and listens immediately (throws on bind failure); workers
  /// may connect as soon as the constructor returns.
  explicit ShardCoordinator(DistConfig config);
  /// Stops answering: drops every worker connection and closes the
  /// listen socket.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// The bound endpoint (TCP port resolved) — hand this to workers.
  const serve::Endpoint& endpoint() const noexcept { return endpoint_; }

  /// A consistent snapshot of the counters so far, readable from any
  /// thread while run() is in flight (a narrow stand-in until the
  /// process-wide metrics registry exists).
  DistCounters counters() const;

  /// Runs the distributed analysis to completion: accepts workers,
  /// leases out every trial (or the stopping oracle's frontier, wave
  /// by wave), hands their blocks to the trial-range loop, and
  /// degrades to local execution if the fleet dies. `request` supplies
  /// the metrics plan, retention and stopping spec (its workload and
  /// policy fields are ignored — the job defines both). Throws
  /// std::invalid_argument before any work for a request the fleet
  /// cannot honour: an invalid metric or stopping spec, a spill
  /// without a path, or a session-only extension (core_simulation =
  /// false, reinstatement_terms, secondary_uncertainty). Blocking;
  /// call once. After a successful run the coordinator keeps answering
  /// until it is destroyed: a worker that connects late gets the job
  /// and a done grant (reap spawned workers before destroying it), and
  /// any block that still arrives is counted as a duplicate in
  /// counters(), never merged.
  DistResult run(const AnalysisRequest& request);

 private:
  struct WorkerConn;
  struct Lease;
  struct Impl;

  serve::Endpoint endpoint_;
  std::unique_ptr<Impl> impl_;
};

/// The engine policy a job names: its engine kind under that kind's
/// paper configuration, with the job's SIMD fields. Workers and the
/// coordinator's local fallback build their engines from it, so their
/// blocks agree bit for bit. Throws std::invalid_argument for an
/// unknown engine name.
ExecutionPolicy policy_for_job(const JobSpec& job);

/// The loss tables a job's engine binds, in the precision
/// binds_float_tables names, built once per job and lent to every
/// trial range a process runs for it.
struct JobTables {
  bool use_float = false;
  TableStore<double> f64;
  TableStore<float> f32;

  JobTables(const Portfolio& portfolio, const ExecutionPolicy& policy);

  /// An engine context over these tables for global trials `trials`.
  EngineContext context(TrialRange trials) const;
};

/// Capped exponential backoff with deterministic jitter: attempt k
/// (0-based) sleeps base * 2^k, capped, plus up to 25% jitter drawn
/// from `seed` and k. Shared by the worker's reconnect loop and
/// ara_loadgen's resubmit scheduling so "backoff with jitter" means
/// one thing in this codebase.
std::uint64_t backoff_delay_ms(std::uint64_t base_ms, std::uint64_t cap_ms,
                               unsigned attempt, std::uint64_t seed);

}  // namespace ara::dist
