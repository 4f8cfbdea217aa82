// ara_serve — the analysis service daemon: a DWRR-scheduled,
// admission-controlled multi-tenant front over one shared
// AnalysisSession, speaking the framed wire protocol on a TCP or Unix
// socket (DESIGN.md §7).
//
//   ara_serve --listen unix:/tmp/ara.sock | HOST:PORT
//             [--engine NAME] [--max-inflight N] [--quantum TRIALS]
//             [--byte-budget BYTES] [--session-workers N]
//             [--tenant NAME:WEIGHT[:DEPTH]]...
//             [--dataset NAME=DIR]...
//
// --dataset registers a generated workload directory (ara_cli
// generate) under a name requests can reference; requests may also
// carry an inline synth spec, materialised once and cached.
//
// Shutdown: SIGTERM/SIGINT triggers a graceful drain — admission
// closes (new requests get kShutdown + retry-after), queued requests
// are served to completion, then the process exits. A second signal
// flushes the queue with kShutdown replies instead of serving it.
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "core/engine_factory.hpp"
#include "int_flag.hpp"
#include "io/binary.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace ara;
using namespace ara::serve;

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ara_serve --listen unix:PATH|HOST:PORT\n"
      "            [--engine NAME] [--simd auto|scalar|force[:N]]\n"
      "            [--max-inflight N] [--quantum TRIALS]\n"
      "            [--byte-budget BYTES] [--session-workers N]\n"
      "            [--tenant NAME:WEIGHT[:DEPTH]]...\n"
      "            [--dataset NAME=DIR]...\n";
  std::exit(2);
}

// Signal flag: 1 = drain requested, 2 = flush requested.
volatile std::sig_atomic_t g_signal_count = 0;
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  g_signal_count = g_signal_count + 1;
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

// An integer flag as the type it fills (tools/int_flag.hpp); a bad
// value is a usage error naming the flag.
template <typename T>
T int_flag(const std::string& value, const std::string& flag) {
  try {
    return ara::tools::parse_int_flag<T>(flag, value);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  bool have_listen = false;
  AnalysisService::Options options;
  options.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  std::vector<TenantConfig> tenants;
  std::vector<std::pair<std::string, std::string>> datasets;
  // Applied to options.policy after the loop so --simd composes with
  // --engine regardless of flag order (--engine rebuilds the policy).
  ara::simd::SimdPolicy simd_policy = ara::simd::SimdPolicy::kScalar;
  unsigned simd_width = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--listen") {
      endpoint = Endpoint::parse(value());
      have_listen = true;
    } else if (arg == "--engine") {
      const std::string name = value();
      const std::optional<EngineKind> kind = engine_kind_from_name(name);
      if (!kind) usage("unknown engine: " + name);
      options.policy = ExecutionPolicy::with_engine(*kind);
    } else if (arg == "--simd") {
      const std::string spec = value();
      std::string mode = spec;
      if (const auto colon = spec.find(':'); colon != std::string::npos) {
        mode = spec.substr(0, colon);
        simd_width = int_flag<unsigned>(spec.substr(colon + 1), arg);
        if (mode != "force" || simd_width == 0) {
          usage("bad --simd value: " + spec);
        }
      }
      const auto parsed = ara::simd::simd_policy_from_name(mode);
      if (!parsed) usage("bad --simd value: " + spec);
      simd_policy = *parsed;
    } else if (arg == "--max-inflight") {
      options.max_inflight = int_flag<std::size_t>(value(), arg);
    } else if (arg == "--quantum") {
      options.quantum_trials = int_flag<std::uint64_t>(value(), arg);
    } else if (arg == "--byte-budget") {
      options.global_byte_budget = int_flag<std::size_t>(value(), arg);
    } else if (arg == "--session-workers") {
      options.session_workers = int_flag<std::size_t>(value(), arg);
    } else if (arg == "--tenant") {
      const std::string spec = value();
      TenantConfig cfg;
      const auto c1 = spec.find(':');
      if (c1 == std::string::npos || c1 == 0) {
        usage("--tenant expects NAME:WEIGHT[:DEPTH]");
      }
      cfg.name = spec.substr(0, c1);
      const auto c2 = spec.find(':', c1 + 1);
      const std::string weight = spec.substr(
          c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
      cfg.weight = int_flag<std::uint32_t>(weight, arg);
      if (cfg.weight == 0) usage("--tenant weight must be >= 1");
      if (c2 != std::string::npos) {
        cfg.max_queue_depth = int_flag<std::size_t>(spec.substr(c2 + 1), arg);
      }
      tenants.push_back(std::move(cfg));
    } else if (arg == "--dataset") {
      const std::string spec = value();
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        usage("--dataset expects NAME=DIR");
      }
      datasets.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      usage("unknown flag: " + arg);
    }
  }
  if (!have_listen) usage("--listen is required");
  options.policy.simd = simd_policy;
  options.policy.simd_width = simd_width;

  try {
    AnalysisService service(options);
    for (TenantConfig& cfg : tenants) service.configure_tenant(std::move(cfg));
    for (const auto& [name, dir] : datasets) {
      auto workload = std::make_shared<ServedWorkload>();
      workload->yet = io::load_yet(dir + "/yet.bin");
      workload->portfolio = io::load_portfolio(dir + "/portfolio.bin");
      std::cerr << "dataset " << name << ": "
                << workload->yet.trial_count() << " trials, "
                << workload->portfolio.layer_count() << " layers\n";
      service.register_dataset(name, std::move(workload));
    }

    if (::pipe2(g_signal_pipe, O_CLOEXEC) != 0) {
      std::cerr << "error: pipe2 failed\n";
      return 1;
    }
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    ServeServer server(service, endpoint);
    server.start();
    std::cerr << "ara_serve listening on " << server.endpoint().describe()
              << "\n";

    // Wait for the drain signal.
    for (;;) {
      pollfd pfd{g_signal_pipe[0], POLLIN, 0};
      const int ready = ::poll(&pfd, 1, -1);
      if (ready < 0 && errno == EINTR) {
        if (g_signal_count > 0) break;
        continue;
      }
      if (ready > 0) break;
    }

    std::cerr << "ara_serve: draining (" << service.queued()
              << " queued, " << service.inflight() << " in flight)\n";
    server.stop();  // no new connections or requests
    if (g_signal_count > 1) {
      service.stop();  // impatient: flush queue with kShutdown replies
    } else {
      // Graceful drain on a worker thread, while this thread keeps
      // watching the signal pipe: a second signal arriving mid-drain
      // (long backlog, stalled reply write) must still escalate.
      // service.stop() flushes the queues, which releases the blocked
      // drain(); stop() is idempotent, so the unconditional call after
      // the join is safe on both paths.
      std::atomic<bool> drained{false};
      std::thread drainer([&] {
        service.drain();
        drained.store(true);
      });
      while (!drained.load()) {
        pollfd pfd{g_signal_pipe[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready > 0 && (pfd.revents & POLLIN) != 0) {
          char buf[16];
          [[maybe_unused]] const auto n =
              ::read(g_signal_pipe[0], buf, sizeof buf);
        }
        if (g_signal_count > 1) {
          std::cerr << "ara_serve: second signal, flushing queue\n";
          service.stop();
          break;
        }
      }
      drainer.join();
      service.stop();
    }

    for (const TenantStats& t : service.stats()) {
      std::cerr << "tenant " << t.name << " (w=" << t.weight << "): "
                << t.dispatch.completed << " ok, "
                << t.queueing.rejected_queue_full +
                       t.queueing.rejected_bytes << " rejected, "
                << t.queueing.shed_early << " shed-early, "
                << t.queueing.shed_deadline + t.dispatch.shed_deadline
                << " shed-deadline\n";
    }
    std::cerr << "ara_serve: drained, exiting\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
