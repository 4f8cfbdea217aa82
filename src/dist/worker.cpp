#include "dist/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/engine_factory.hpp"
#include "core/failpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "io/binary.hpp"
#include "serve/service.hpp"

namespace ara::dist {

namespace {

using serve::MessageType;

/// Everything one connection's lifetime needs to share with the
/// heartbeat thread: the fd, a write lock (frames from the main loop
/// and heartbeats interleave on one socket), and the lease being
/// heartbeated (0 = none). `stalled` pauses the heartbeat without
/// tearing the connection down — the worker.stall failpoint's way of
/// looking exactly like a wedged process.
struct ConnState {
  explicit ConnState(const serve::Endpoint& ep) : client(ep) {}
  serve::ServeClient client;
  std::mutex write_mutex;
  std::atomic<std::uint64_t> lease{0};
  std::atomic<bool> stalled{false};
  std::atomic<bool> closed{false};
};

void heartbeat_loop(ConnState& conn, std::uint64_t period_ms) {
  const auto period = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, period_ms));
  while (!conn.closed.load()) {
    std::this_thread::sleep_for(period);
    const std::uint64_t lease = conn.lease.load();
    if (lease == 0 || conn.stalled.load() || conn.closed.load()) continue;
    Heartbeat hb;
    hb.lease_id = lease;
    try {
      std::lock_guard<std::mutex> lock(conn.write_mutex);
      serve::write_frame(conn.client.fd(), MessageType::kDistHeartbeat,
                         encode_heartbeat(hb));
    } catch (const std::exception&) {
      return;  // the main loop will notice the dead socket itself
    }
  }
}

/// The workload, engine and loss tables, materialised once per process
/// (every reconnect carries the same job, so there is nothing to
/// rebuild) and shared by every lease.
struct Materialized {
  Portfolio portfolio;
  Yet yet;
  std::unique_ptr<Engine> engine;
  std::optional<JobTables> tables;
  JobSpec job;
};

Materialized materialize(JobSpec job) {
  Materialized m;
  if (job.workload == JobWorkload::kSynth) {
    serve::ServedWorkload workload = serve::materialize_synth(job.synth);
    m.portfolio = std::move(workload.portfolio);
    m.yet = std::move(workload.yet);
  } else {
    m.yet = io::load_yet(job.yet_path);
    m.portfolio = io::load_portfolio(job.portfolio_path);
  }
  const ExecutionPolicy policy = policy_for_job(job);
  m.engine = make_engine(policy);
  m.tables.emplace(m.portfolio, policy);
  m.job = std::move(job);
  return m;
}

/// One connection's session: hello, job, lease loop. Returns true when
/// the coordinator granted kDone (the worker's job is finished), false
/// when the connection should be retried.
bool serve_connection(ConnState& conn, std::optional<Materialized>& mat,
                      const WorkerConfig& config) {
  Hello hello;
  hello.worker_id = config.worker_id;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  {
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    serve::write_frame(conn.client.fd(), MessageType::kDistHello,
                       encode_hello(hello));
  }
  auto frame = serve::read_frame(conn.client.fd());
  if (!frame || frame->type != MessageType::kDistJob) {
    throw std::runtime_error("ara_worker: expected job after hello");
  }
  if (!mat) mat = materialize(decode_job(frame->payload));

  std::thread heartbeats(
      [&conn, period = mat->job.heartbeat_ms] {
        heartbeat_loop(conn, period);
      });
  // The heartbeat thread owns no state; join it on every exit path.
  struct JoinGuard {
    ConnState& conn;
    std::thread& thread;
    ~JoinGuard() {
      conn.closed.store(true);
      if (thread.joinable()) thread.join();
    }
  } join_guard{conn, heartbeats};

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn.write_mutex);
      serve::write_frame(conn.client.fd(), MessageType::kDistLeaseRequest, "");
    }
    frame = serve::read_frame(conn.client.fd());
    if (!frame) {
      throw std::runtime_error("ara_worker: coordinator closed mid-session");
    }
    if (frame->type != MessageType::kDistLeaseGrant) {
      throw std::runtime_error("ara_worker: expected lease grant");
    }
    const LeaseGrant grant = decode_grant(frame->payload);
    if (grant.kind == GrantKind::kDone) return true;
    if (grant.kind == GrantKind::kWait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(grant.wait_ms));
      continue;
    }

    conn.lease.store(grant.lease_id);
    SimulationResult partial = mat->engine->run(
        mat->portfolio, mat->yet,
        mat->tables->context({static_cast<std::size_t>(grant.begin),
                              static_cast<std::size_t>(grant.end)}));

    // worker.stall: go quiet with the shard computed but unsent —
    // heartbeats stop, the lease expires, the coordinator reassigns.
    // The stalled worker then wakes and sends anyway, exercising the
    // straggler/duplicate path end to end. value = stall millis.
    ARA_FAILPOINT("worker.stall", {
      conn.stalled.store(true);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::uint64_t>(*ara_fp)));
      conn.stalled.store(false);
    });

    // worker.crash_mid_shard: die without a word after the work is
    // done but before the coordinator hears about it — the worst
    // moment, the whole shard's compute is lost.
    ARA_FAILPOINT("worker.crash_mid_shard", { ::_exit(137); });

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
    std::string payload = encode_block(block);

    // block.bit_flip: corrupt one deterministic bit of the encoded
    // payload. The CRC trailer catches it at the coordinator, which
    // discards the block and reassigns the lease.
    ARA_FAILPOINT("block.bit_flip", {
      const std::size_t bit =
          *ara_fp > 0.0
              ? static_cast<std::size_t>(*ara_fp)
              : (payload.size() / 2) * 8 + 3;
      payload[(bit / 8) % payload.size()] ^=
          static_cast<char>(1u << (bit % 8));
    });

    // stream.torn_frame: write half a frame and slam the connection —
    // the coordinator's framing throws, the conn counts as torn, the
    // lease reassigns. Returning false retries through the normal
    // reconnect/backoff path.
    bool torn = false;
    ARA_FAILPOINT("stream.torn_frame", {
      const std::string wire =
          serve::encode_frame(MessageType::kDistBlock, payload);
      const std::size_t half = wire.size() / 2;
      std::lock_guard<std::mutex> lock(conn.write_mutex);
      std::size_t sent = 0;
      while (sent < half) {
        const ssize_t w =
            ::write(conn.client.fd(), wire.data() + sent, half - sent);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
      ::shutdown(conn.client.fd(), SHUT_RDWR);
      torn = true;
    });
    if (torn) {
      conn.lease.store(0);
      return false;
    }

    {
      std::lock_guard<std::mutex> lock(conn.write_mutex);
      serve::write_frame(conn.client.fd(), MessageType::kDistBlock, payload);
    }
    conn.lease.store(0);
  }
}

}  // namespace

int run_worker(const WorkerConfig& config) {
  // Writes to a dead coordinator must fail with EPIPE, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  fail::Registry::instance();  // touch early so a bad spec fails fast

  std::optional<Materialized> mat;
  unsigned failures = 0;
  for (;;) {
    std::optional<ConnState> conn;
    try {
      conn.emplace(config.endpoint);
      // Reaching the coordinator resets the budget: max_attempts
      // bounds *consecutive* unreachability, not session count — a
      // chaos run tearing many connections must not bleed the worker
      // out while the coordinator is demonstrably alive.
      failures = 0;
      const bool done = serve_connection(*conn, mat, config);
      if (done) return 0;
      // Recoverable tear (failpoint or coordinator hiccup): retry,
      // counting it against the backoff budget like any other failure.
    } catch (const std::exception&) {
      // Connection refused, coordinator gone, torn write: retry below.
    }
    if (conn) conn->closed.store(true);
    ++failures;
    if (failures > config.max_attempts) return 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_delay_ms(
        config.backoff_base_ms, config.backoff_cap_ms, failures - 1,
        config.seed)));
  }
}

}  // namespace ara::dist
