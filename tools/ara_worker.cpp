// ara_worker — remote shard executor for distributed runs
// (DESIGN.md §9). Connects to a ShardCoordinator, receives the job,
// then loops lease -> run -> stream the CRC-trailed block back until
// the coordinator says done.
//
//   ara_worker --connect ENDPOINT [--id NAME] [--seed S]
//              [--max-attempts N] [--failpoints SPEC]
//
// ENDPOINT is "unix:PATH" or "HOST:PORT" — the address printed by the
// coordinator (ara_cli run --workers N manages a fleet of these
// automatically; run the binary by hand to span machines).
//
// --failpoints arms fault-injection sites (core/failpoint.hpp) for
// chaos testing, e.g. "worker.crash_mid_shard=0.5:7". Only honoured
// in builds with ARA_FAILPOINTS=ON; a spec passed to a release build
// fails loudly rather than silently testing nothing.
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/failpoint.hpp"
#include "dist/worker.hpp"
#include "int_flag.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ara_worker --connect ENDPOINT [--id NAME] [--seed S]\n"
      "             [--max-attempts N] [--failpoints SPEC]\n"
      "\n"
      "ENDPOINT: unix:PATH or HOST:PORT (the coordinator's address).\n"
      "SPEC arms fault-injection sites, e.g.\n"
      "  worker.crash_mid_shard=1:7:0:1;stream.torn_frame=0.5\n"
      "(requires a build with ARA_FAILPOINTS=ON).\n";
  std::exit(2);
}

// An integer flag as the type it fills (tools/int_flag.hpp); a bad
// value is a usage error naming the flag, before any connection.
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
  std::string connect;
  std::string id;
  std::string failpoints;
  std::uint64_t seed = static_cast<std::uint64_t>(::getpid());
  unsigned max_attempts = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = value();
    } else if (arg == "--id") {
      id = value();
    } else if (arg == "--seed") {
      seed = int_flag<std::uint64_t>(value(), arg);
    } else if (arg == "--max-attempts") {
      max_attempts = int_flag<unsigned>(value(), arg);
    } else if (arg == "--failpoints") {
      failpoints = value();
    } else {
      usage("unknown flag: " + arg);
    }
  }
  if (connect.empty()) usage("--connect ENDPOINT is required");

  try {
    if (!failpoints.empty()) {
      if (!ara::fail::compiled_in()) {
        std::cerr << "error: --failpoints given but this build compiled "
                     "the sites out (configure with -DARA_FAILPOINTS=ON)\n";
        return 2;
      }
      ara::fail::Registry::instance().arm_from_spec(failpoints);
    }

    ara::dist::WorkerConfig config;
    config.endpoint = ara::serve::Endpoint::parse(connect);
    config.worker_id =
        id.empty() ? "worker-" + std::to_string(::getpid()) : id;
    config.seed = seed;
    config.max_attempts = max_attempts;
    return ara::dist::run_worker(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
