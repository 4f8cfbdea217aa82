#include "dist/coordinator.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/crc32c.hpp"
#include "core/range_executor.hpp"
#include "io/binary.hpp"
#include "serve/service.hpp"

namespace ara::dist {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Identity of one completed range's numeric content: CRC32C over the
/// block's two row tables. Deterministic engines make re-executions of
/// a range byte-identical, so equal ranges with unequal identities are
/// a real conflict, never jitter.
std::uint32_t block_identity(const Ylt& ylt) {
  std::uint32_t crc = crc32c(0, ylt.annual_raw().data(),
                             ylt.annual_raw().size() * sizeof(double));
  return crc32c(crc, ylt.max_occurrence_raw().data(),
                ylt.max_occurrence_raw().size() * sizeof(double));
}

}  // namespace

ExecutionPolicy policy_for_job(const JobSpec& job) {
  const auto kind = engine_kind_from_name(job.engine);
  if (!kind) {
    throw std::invalid_argument("dist: unknown engine kind \"" + job.engine +
                                "\"");
  }
  ExecutionPolicy policy = ExecutionPolicy::with_engine(*kind);
  policy.simd = static_cast<simd::SimdPolicy>(job.simd);
  policy.simd_width = job.simd_width;
  return policy;
}

JobTables::JobTables(const Portfolio& portfolio,
                     const ExecutionPolicy& policy)
    : use_float(binds_float_tables(*policy.engine,
                                   resolved_config(policy, *policy.engine))) {
  if (use_float) {
    f32 = build_tables<float>(portfolio);
  } else {
    f64 = build_tables<double>(portfolio);
  }
}

EngineContext JobTables::context(TrialRange trials) const {
  EngineContext ctx;
  if (use_float) {
    ctx.tables_f32 = &f32;
  } else {
    ctx.tables_f64 = &f64;
  }
  ctx.trials = trials;
  return ctx;
}

std::uint64_t backoff_delay_ms(std::uint64_t base_ms, std::uint64_t cap_ms,
                               unsigned attempt, std::uint64_t seed) {
  // base * 2^attempt, saturating well before the shift overflows.
  std::uint64_t delay = base_ms;
  for (unsigned i = 0; i < attempt && delay < cap_ms; ++i) delay *= 2;
  delay = std::min(delay, cap_ms);
  // Deterministic jitter in [0, delay/4]: splitmix64 over (seed,
  // attempt), so two workers with different seeds never march in
  // lockstep against a recovering coordinator.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (attempt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return delay + (delay > 0 ? z % (delay / 4 + 1) : 0);
}

// ---- internals ----

struct ShardCoordinator::WorkerConn {
  explicit WorkerConn(int fd) : fd(fd) {}
  ~WorkerConn() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
  std::string id;  ///< from Hello, for diagnostics
};

struct ShardCoordinator::Lease {
  std::uint64_t id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  Clock::time_point deadline{};
  std::shared_ptr<WorkerConn> owner;
};

/// The lease fleet's RangeExecutor: ranges are leased to workers (or
/// run locally once the fleet is gone), and every block that passes the
/// exactly-once discipline is handed to the accept of run_ranges().
struct ShardCoordinator::Impl final : RangeExecutor {
  DistConfig config;

  int listen_fd = -1;
  int stop_pipe[2] = {-1, -1};
  std::atomic<bool> stopping{false};

  std::mutex mutex;
  std::condition_variable cv;

  // Ranges awaiting a lease. Fixed quanta: a range requeued after a
  // lost lease is re-granted whole, which is what makes duplicate
  // detection a begin-keyed equality check.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;
  std::map<std::uint64_t, Lease> leases;  ///< open, by lease id
  std::uint64_t next_lease_id = 1;

  /// Completed ranges: begin -> (end, content identity). The
  /// authoritative "exactly once" record; ShardMerger's own disjoint
  /// set backs it up.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> done;
  /// Trials accepted, and trials issued (the plan plus every range an
  /// accept returned); the run is complete when the two meet.
  std::uint64_t covered = 0;
  std::uint64_t planned = 0;

  DistCounters counters;
  std::size_t active_workers = 0;
  bool had_worker = false;
  std::string fatal;  ///< non-empty = poisoned (conflict, failed range)

  std::string job_payload;  ///< encoded once

  // The local fallback's workload, policy and engine, and the accept
  // of run_ranges(); set by ShardCoordinator::run, live during run()
  // only (run() clears them before it returns). The fallback builds
  // `local_tables` on its first shard and reuses them for the rest.
  const Portfolio* portfolio = nullptr;
  const Yet* yet = nullptr;
  const ExecutionPolicy* policy = nullptr;
  const Engine* engine = nullptr;
  const Accept* accept = nullptr;
  std::optional<JobTables> local_tables;

  std::thread accept_thread;
  std::thread monitor_thread;
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> exited;
  };
  std::vector<Reader> readers;
  std::vector<std::weak_ptr<WorkerConn>> conns;

  bool complete_locked() const { return covered == planned; }

  void queue_locked(const std::vector<TrialRange>& ranges) {
    for (const TrialRange& r : ranges) {
      pending.emplace_back(r.begin, r.end);
      planned += r.size();
    }
  }

  /// Poisons the run; the first failure wins.
  void fail(std::string what) {
    std::lock_guard<std::mutex> lock(mutex);
    if (fatal.empty()) fatal = std::move(what);
    cv.notify_all();
  }

  void requeue_locked(const Lease& lease) {
    // Already-finished ranges (a block that landed in the same tick
    // the monitor expired its lease) must not go back on the queue.
    if (done.count(lease.begin) == 0) {
      pending.emplace_back(lease.begin, lease.end);
    }
    ++counters.leases_reassigned;
  }

  /// Accepts one completed range: exactly-once admission (a
  /// byte-identical re-completion is discarded, a conflicting one
  /// poisons the run), then the accept of run_ranges(). The range
  /// counts as covered only after accept has returned and the ranges it
  /// issued are queued, so the run cannot complete while a barrier is
  /// still extending the frontier. A block arriving after run() has
  /// returned re-completes a covered range: it is counted as a
  /// duplicate and never merged. Caller does NOT hold the mutex.
  void accept_block(std::uint64_t lease_id, SimulationResult partial) {
    const std::uint64_t begin = partial.trial_begin;
    const std::uint64_t end = begin + partial.ylt.trial_count();
    const std::uint32_t identity = block_identity(partial.ylt);
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!fatal.empty()) return;
      if (accept == nullptr) {
        ++counters.duplicate_blocks;
        return;
      }
      const auto it = done.find(begin);
      if (it != done.end()) {
        // A straggler re-completed a reassigned range. Same bytes:
        // idempotent, drop it. Different bytes: the two executions
        // disagree about the same trials — nothing downstream can
        // arbitrate that, stop loudly.
        if (it->second.first == end && it->second.second == identity) {
          ++counters.duplicate_blocks;
        } else {
          fatal = "dist: conflicting completions for trial range [" +
                  std::to_string(begin) + ", " + std::to_string(end) +
                  ") — duplicate block's bits differ from the accepted one";
          cv.notify_all();
        }
        return;
      }
      done.emplace(begin, std::make_pair(end, identity));
      ++counters.blocks_accepted;
      // The block may still be leased (normal completion) or already
      // reassigned and re-pending (straggler won the race): clear both.
      if (const auto lease = leases.find(lease_id); lease != leases.end() &&
          lease->second.begin == begin) {
        leases.erase(lease);
      } else {
        for (auto it2 = leases.begin(); it2 != leases.end(); ++it2) {
          if (it2->second.begin == begin && it2->second.end == end) {
            leases.erase(it2);
            break;
          }
        }
      }
      std::erase_if(pending, [&](const auto& r) { return r.first == begin; });
    }
    // Outside the lock: run_ranges() merges and reduces the rows, and the
    // `done` reservation above guarantees no second accept of this
    // range can reach it.
    std::vector<TrialRange> next;
    try {
      next = (*accept)(std::move(partial));
    } catch (const std::exception& e) {
      fail("shard [" + std::to_string(begin) + ", " + std::to_string(end) +
           ") failed: " + e.what());
      return;
    }
    std::lock_guard<std::mutex> lock(mutex);
    queue_locked(next);
    covered += end - begin;
    cv.notify_all();
  }

  void on_worker_lost(const std::shared_ptr<WorkerConn>& conn, bool joined) {
    std::lock_guard<std::mutex> lock(mutex);
    if (joined) {
      --active_workers;
      // A worker departing after the run completed finished its job;
      // "lost" means it left work behind.
      if (!complete_locked()) ++counters.workers_lost;
    }
    for (auto it = leases.begin(); it != leases.end();) {
      if (it->second.owner == conn) {
        requeue_locked(it->second);
        it = leases.erase(it);
      } else {
        ++it;
      }
    }
    cv.notify_all();
  }

  LeaseGrant next_grant_locked() {
    LeaseGrant grant;
    while (!pending.empty() && done.count(pending.front().first) != 0) {
      pending.pop_front();  // completed by a straggler while queued
    }
    if (complete_locked()) {
      grant.kind = GrantKind::kDone;
      return grant;
    }
    if (pending.empty()) {
      grant.kind = GrantKind::kWait;
      grant.wait_ms = std::max<std::uint64_t>(1, config.lease_timeout_ms / 4);
      return grant;
    }
    const auto [begin, end] = pending.front();
    pending.pop_front();
    grant.kind = GrantKind::kRange;
    grant.lease_id = next_lease_id++;
    grant.begin = begin;
    grant.end = end;
    ++counters.leases_granted;
    return grant;
  }

  void reader_loop(std::shared_ptr<WorkerConn> conn) {
    bool joined = false;
    bool torn = false;
    // Distinguish "the byte stream itself broke" (torn/short frame,
    // bad magic — the stream.torn_frame failpoint's signature) from
    // payload-level failures, which carry their own counters.
    const auto next_frame = [&] {
      try {
        return serve::read_frame(conn->fd);
      } catch (const std::exception&) {
        torn = true;
        throw;
      }
    };
    try {
      // First frame: Hello. Anything else is a stranger on the port.
      auto frame = next_frame();
      if (!frame || frame->type != serve::MessageType::kDistHello) return;
      conn->id = decode_hello(frame->payload).worker_id;
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++active_workers;
        ++counters.workers_joined;
        had_worker = true;
        joined = true;
      }
      cv.notify_all();
      serve::write_frame(conn->fd, serve::MessageType::kDistJob, job_payload);

      for (;;) {
        frame = next_frame();
        if (!frame) break;  // clean EOF
        switch (frame->type) {
          case serve::MessageType::kDistLeaseRequest: {
            LeaseGrant grant;
            {
              std::lock_guard<std::mutex> lock(mutex);
              grant = next_grant_locked();
              if (grant.kind == GrantKind::kRange) {
                Lease lease;
                lease.id = grant.lease_id;
                lease.begin = grant.begin;
                lease.end = grant.end;
                lease.deadline =
                    Clock::now() +
                    std::chrono::milliseconds(config.lease_timeout_ms);
                lease.owner = conn;
                leases.emplace(lease.id, lease);
              }
            }
            serve::write_frame(conn->fd, serve::MessageType::kDistLeaseGrant,
                               encode_grant(grant));
            break;
          }
          case serve::MessageType::kDistHeartbeat: {
            const Heartbeat hb = decode_heartbeat(frame->payload);
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.heartbeats;
            if (const auto it = leases.find(hb.lease_id); it != leases.end()) {
              it->second.deadline =
                  Clock::now() +
                  std::chrono::milliseconds(config.lease_timeout_ms);
            }
            break;
          }
          case serve::MessageType::kDistBlock: {
            Block block;
            try {
              block = decode_block(frame->payload);
            } catch (const std::exception&) {
              // Corrupt bits made it through the frame layer. Discard
              // the block, drop the worker (its stream can no longer
              // be trusted); its leases requeue below.
              std::lock_guard<std::mutex> lock(mutex);
              ++counters.corrupt_blocks;
              throw;
            }
            SimulationResult partial;
            partial.engine_name = block.engine_name;
            partial.ylt = std::move(block.ylt);
            partial.ops = block.ops;
            partial.trial_begin =
                static_cast<std::size_t>(block.trial_begin);
            partial.wall_seconds = block.wall_seconds;
            partial.simulated_seconds = block.simulated_seconds;
            partial.devices = block.devices;
            partial.simd_isa = block.simd_isa;
            accept_block(block.lease_id, std::move(partial));
            break;
          }
          default:
            throw std::runtime_error("dist: unexpected frame type");
        }
      }
    } catch (const std::exception&) {
      // Torn frame, corrupt block, protocol violation, or write
      // failure: the connection is unusable either way. The specific
      // counter (torn_frames / corrupt_blocks) was taken where the
      // failure was classified.
      if (torn) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.torn_frames;
      }
    }
    on_worker_lost(conn, joined);
  }

  void accept_loop() {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_pipe[0], POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if ((fds[1].revents & POLLIN) != 0 || stopping.load()) return;
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;
      }
      auto conn = std::make_shared<WorkerConn>(fd);
      auto exited = std::make_shared<std::atomic<bool>>(false);
      std::lock_guard<std::mutex> lock(mutex);
      // Join readers that already finished so a long run with worker
      // churn does not accumulate dead threads.
      for (auto it = readers.begin(); it != readers.end();) {
        if (it->exited->load()) {
          it->thread.join();
          it = readers.erase(it);
        } else {
          ++it;
        }
      }
      std::erase_if(conns, [](const auto& weak) { return weak.expired(); });
      conns.push_back(conn);
      readers.push_back(Reader{
          std::thread([this, conn = std::move(conn), exited]() mutable {
            reader_loop(std::move(conn));
            exited->store(true);
          }),
          exited});
    }
  }

  /// Expires leases whose heartbeat deadline passed and requeues their
  /// ranges — the recovery path for stalled (SIGSTOP'd, wedged)
  /// workers whose connection never drops.
  void monitor_loop() {
    const auto period =
        std::chrono::milliseconds(std::max<std::uint64_t>(
            1, config.lease_timeout_ms / 8));
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping.load()) {
      const auto now = Clock::now();
      for (auto it = leases.begin(); it != leases.end();) {
        if (it->second.deadline <= now) {
          requeue_locked(it->second);
          it = leases.erase(it);
          cv.notify_all();
        } else {
          ++it;
        }
      }
      cv.wait_for(lock, period);
    }
  }

  void shutdown_threads() {
    if (!stopping.exchange(true)) {
      const char byte = 1;
      [[maybe_unused]] const auto n = ::write(stop_pipe[1], &byte, 1);
    }
    cv.notify_all();
    if (accept_thread.joinable()) accept_thread.join();
    if (monitor_thread.joinable()) monitor_thread.join();
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& weak : conns) {
        if (const auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    for (Reader& reader : readers) {
      if (reader.thread.joinable()) reader.thread.join();
    }
    readers.clear();
  }

  /// Leases `ranges` (and every range an accept returns) to the fleet
  /// until all are accepted, degrading to local execution when the
  /// fleet is gone, then lets connected workers collect their done
  /// grant. The listen socket stays open and answered until the
  /// coordinator is destroyed, so a worker that connects late is told
  /// done instead of retrying against a closed address; a poisoned run
  /// closes it at once. Throws the poisoning failure.
  void run(std::vector<TrialRange> ranges, const Accept& accept_fn) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      accept = &accept_fn;
      queue_locked(ranges);
      job_payload = encode_job(config.job);
    }

    // Workers write blocks to peers that may be gone; EPIPE must
    // surface as an error return, not kill the process (mirrors
    // ServeServer).
    std::signal(SIGPIPE, SIG_IGN);
    accept_thread = std::thread([this] { accept_loop(); });
    monitor_thread = std::thread([this] { monitor_loop(); });

    // Progress loop: wait for blocks, degrade to local execution when
    // the fleet is gone (or never showed up within the grace window).
    const auto started = Clock::now();
    const auto grace =
        std::chrono::milliseconds(config.first_worker_grace_ms);
    for (;;) {
      std::pair<std::uint64_t, std::uint64_t> local_range{0, 0};
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (!fatal.empty() || complete_locked()) break;
        const bool fleet_gone =
            active_workers == 0 &&
            (had_worker || Clock::now() - started >= grace);
        if (fleet_gone && !pending.empty()) {
          while (!pending.empty() && done.count(pending.front().first) != 0) {
            pending.pop_front();
          }
          if (!pending.empty()) {
            local_range = pending.front();
            pending.pop_front();
            ++counters.local_shards;
          }
        }
        if (local_range.second == 0) {
          cv.wait_for(lock, std::chrono::milliseconds(20));
          continue;
        }
      }
      // Local fallback shard, executed outside the lock. Same engine,
      // same trial range: bitwise the rows a worker would have sent.
      const TrialRange trials{static_cast<std::size_t>(local_range.first),
                              static_cast<std::size_t>(local_range.second)};
      SimulationResult partial;
      try {
        if (!local_tables) local_tables.emplace(*portfolio, *policy);
        partial = engine->run(*portfolio, *yet, local_tables->context(trials));
      } catch (const std::exception& e) {
        fail("shard [" + std::to_string(trials.begin) + ", " +
             std::to_string(trials.end) + ") failed: " + e.what());
        continue;
      }
      accept_block(/*lease_id=*/0, std::move(partial));
    }

    // Drain: let connected workers ask once more and collect kDone, so
    // the returned counters include the duplicate blocks they send on
    // the way out. Bounded: a stalled straggler must not hold the result
    // hostage; it is still answered after run() returns.
    bool poisoned = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (fatal.empty()) {
        const auto drain_deadline =
            Clock::now() + std::chrono::milliseconds(std::max<std::uint64_t>(
                               2 * config.lease_timeout_ms, 1000));
        cv.wait_until(lock, drain_deadline,
                      [this] { return active_workers == 0; });
      }
      poisoned = !fatal.empty();
    }
    if (poisoned) {
      // Drop every connection and refuse reconnects (connection refused
      // beats hanging in a backlog nobody accepts from); the destructor
      // tolerates the early close.
      shutdown_threads();
      if (listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
      }
      if (config.endpoint.kind == serve::Endpoint::Kind::kUnix) {
        ::unlink(config.endpoint.path.c_str());
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    accept = nullptr;
    portfolio = nullptr;
    yet = nullptr;
    policy = nullptr;
    engine = nullptr;
    local_tables.reset();
    if (!fatal.empty()) throw std::runtime_error(fatal);
  }

  /// Blocks arrive as wire payloads without the phase breakdowns, so
  /// even a one-lease run is merged and replayed.
  bool partials_complete() const override { return false; }
};

// ---- ShardCoordinator ----

ShardCoordinator::ShardCoordinator(DistConfig config)
    : endpoint_(config.endpoint), impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  if (impl_->config.job.trial_count == 0 ||
      impl_->config.job.layer_count == 0) {
    throw std::invalid_argument(
        "ShardCoordinator: job needs trial_count and layer_count");
  }
  if (::pipe2(impl_->stop_pipe, O_CLOEXEC) != 0) throw_errno("pipe2");
  // Bind + listen now so run() can hand the resolved endpoint to
  // workers spawned before it starts. Reuses the serve server's socket
  // recipe (poll + self-pipe; see serve/server.cpp).
  if (endpoint_.kind == serve::Endpoint::Kind::kUnix) {
    impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (impl_->listen_fd < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(endpoint_.path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint_.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(" + endpoint_.describe() + ")");
    }
  } else {
    impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (impl_->listen_fd < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint_.port);
    if (::inet_pton(AF_INET, endpoint_.host.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("Endpoint: bad IPv4 host \"" +
                                  endpoint_.host + "\"");
    }
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(" + endpoint_.describe() + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      endpoint_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    throw_errno("listen(" + endpoint_.describe() + ")");
  }
}

ShardCoordinator::~ShardCoordinator() {
  impl_->shutdown_threads();
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->stop_pipe[0] >= 0) ::close(impl_->stop_pipe[0]);
  if (impl_->stop_pipe[1] >= 0) ::close(impl_->stop_pipe[1]);
  if (endpoint_.kind == serve::Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

DistCounters ShardCoordinator::counters() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters;
}

DistResult ShardCoordinator::run(const AnalysisRequest& request) {
  // The fleet prices the core simulation only; refuse the session's
  // extensions before any work rather than silently dropping them.
  if (!request.core_simulation) {
    throw std::invalid_argument(
        "ShardCoordinator: AnalysisRequest::core_simulation = false is not "
        "supported — the fleet runs the core simulation");
  }
  if (!request.reinstatement_terms.empty()) {
    throw std::invalid_argument(
        "ShardCoordinator: AnalysisRequest::reinstatement_terms is not "
        "supported — reinstatement pricing runs in the session");
  }
  if (request.secondary_uncertainty) {
    throw std::invalid_argument(
        "ShardCoordinator: AnalysisRequest::secondary_uncertainty is not "
        "supported — workers run the job's engine");
  }
  Impl& impl = *impl_;
  const JobSpec& job = impl.config.job;

  // The coordinator needs the workload itself: for the local fallback,
  // the cost-only replay, and the metric labels. Same recipe as the
  // workers — bitwise identity depends on it.
  Portfolio portfolio;
  Yet yet;
  if (job.workload == JobWorkload::kSynth) {
    serve::ServedWorkload workload = serve::materialize_synth(job.synth);
    portfolio = std::move(workload.portfolio);
    yet = std::move(workload.yet);
  } else {
    yet = io::load_yet(job.yet_path);
    portfolio = io::load_portfolio(job.portfolio_path);
  }
  if (yet.trial_count() != job.trial_count ||
      portfolio.layer_count() != job.layer_count) {
    throw std::invalid_argument(
        "ShardCoordinator: job shape does not match the workload (" +
        std::to_string(yet.trial_count()) + " trials, " +
        std::to_string(portfolio.layer_count()) + " layers on disk)");
  }

  const ExecutionPolicy policy = policy_for_job(job);
  const std::unique_ptr<Engine> engine = make_engine(policy);

  // Lease quanta: ~2 leases per expected worker so a lost worker
  // forfeits at most half its share, min 1 trial. Adaptive waves are
  // cut in the same quanta, so "a wave" and "the grants that cover it"
  // coincide.
  std::uint64_t lease_trials = impl.config.lease_trials;
  if (lease_trials == 0) {
    const std::uint64_t target_leases =
        std::max<std::uint64_t>(1, 2 * impl.config.expected_workers);
    lease_trials = std::max<std::uint64_t>(
        1, (job.trial_count + target_leases - 1) / target_leases);
  }

  AnalysisRequest local = request;
  local.portfolio = &portfolio;
  local.yet = &yet;
  impl.portfolio = &portfolio;
  impl.yet = &yet;
  impl.policy = &policy;
  impl.engine = engine.get();
  DistResult result;
  result.analysis = run_ranges(
      local, *engine,
      ShardPlan{job.trial_count, static_cast<std::size_t>(lease_trials)},
      impl);
  result.analysis.engine = *policy.engine;
  result.counters = counters();
  return result;
}

}  // namespace ara::dist
