// ara_loadgen — open-loop Poisson traffic generator for ara_serve:
// N synthetic tenants, each with its own arrival rate, request count,
// weight label and deadline, driven over the wire protocol (one
// connection per tenant, pipelined, replies correlated by request_id).
// Prints per-tenant p50/p95/p99 latency, throughput and
// shed/reject/lost counts; --json writes the same as a report file.
//
//   ara_loadgen --connect unix:PATH|HOST:PORT
//               --tenant NAME:WEIGHT:RATE_HZ:REQUESTS[:DEADLINE_MS]...
//               [--trials N] [--events-per-trial E] [--catalogue C]
//               [--dataset NAME] [--seed S] [--json FILE]
//               [--retries N] [--retry-base-ms B] [--retry-cap-ms C]
//
// The synth spec flags describe the workload every request names
// (identical across tenants, so the server shares one cached
// workload); --dataset switches to a server-registered dataset.
//
// Backpressure replies (rejected_queue_full, rejected_bytes,
// shed_early) are retried up to --retries times (default 3; 0 restores
// report-rejects-as-final): each resubmit waits out the later of the
// server's retry_after_ms hint and a capped exponential backoff with
// jitter. Retries are reported in their own column/JSON field; the
// status counters only ever see each request's final reply.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "int_flag.hpp"
#include "perf/report.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace ara;
using namespace ara::serve;

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ara_loadgen --connect unix:PATH|HOST:PORT\n"
      "              --tenant NAME:WEIGHT:RATE_HZ:REQUESTS[:DEADLINE_MS]...\n"
      "              [--trials N] [--events-per-trial E] [--catalogue C]\n"
      "              [--dataset NAME] [--seed S] [--json FILE]\n"
      "              [--retries N] [--retry-base-ms B] [--retry-cap-ms C]\n"
      "\n"
      "Backpressure replies retry up to N times (default 3, 0 = off),\n"
      "honouring the server's retry_after_ms hint under a capped\n"
      "exponential backoff with jitter.\n";
  std::exit(2);
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

double parse_double(const std::string& value, const std::string& flag) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size() || parsed < 0.0) throw std::exception();
    return parsed;
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + value);
  }
}

std::vector<std::string> split(const std::string& spec, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = spec.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(spec.substr(start));
      return out;
    }
    out.push_back(spec.substr(start, pos - start));
    start = pos + 1;
  }
}

void write_json(const std::string& path, const LoadReport& report) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  out << std::setprecision(6) << std::fixed;
  out << "{\n  \"wall_seconds\": " << report.wall_seconds << ",\n";
  out << "  \"total_submitted\": " << report.total_submitted << ",\n";
  out << "  \"total_ok\": " << report.total_ok << ",\n";
  out << "  \"total_backpressure\": " << report.total_backpressure << ",\n";
  out << "  \"total_shed_deadline\": " << report.total_shed_deadline << ",\n";
  out << "  \"total_retries\": " << report.total_retries << ",\n";
  out << "  \"total_lost\": " << report.total_lost << ",\n";
  out << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantLoadReport& t = report.tenants[i];
    out << "    {\"tenant\": \"" << t.name << "\", \"weight\": " << t.weight
        << ", \"submitted\": " << t.submitted << ", \"ok\": " << t.ok
        << ", \"rejected_queue_full\": " << t.rejected_queue_full
        << ", \"rejected_bytes\": " << t.rejected_bytes
        << ", \"shed_early\": " << t.shed_early
        << ", \"shed_deadline\": " << t.shed_deadline
        << ", \"shutdown\": " << t.shutdown << ", \"errors\": " << t.errors
        << ", \"retries\": " << t.retries
        << ", \"lost\": " << t.lost << ", \"ok_trials\": " << t.ok_trials
        << ", \"throughput_rps\": " << t.throughput_rps
        << ", \"p50_ms\": " << t.latency.p50
        << ", \"p95_ms\": " << t.latency.p95
        << ", \"p99_ms\": " << t.latency.p99
        << ", \"mean_ms\": " << t.latency.mean
        << ", \"max_ms\": " << t.latency.max << "}"
        << (i + 1 < report.tenants.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  bool have_connect = false;
  LoadConfig config;
  config.max_retries = 3;  // --retries 0 restores rejects-as-final
  SynthSpec synth;
  std::string dataset;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--connect") {
      endpoint = Endpoint::parse(value());
      have_connect = true;
    } else if (arg == "--tenant") {
      const std::vector<std::string> parts = split(value(), ':');
      if (parts.size() < 4 || parts.size() > 5) {
        usage("--tenant expects NAME:WEIGHT:RATE_HZ:REQUESTS[:DEADLINE_MS]");
      }
      LoadTenantSpec spec;
      spec.name = parts[0];
      spec.weight = int_flag<std::uint32_t>(parts[1], arg);
      spec.rate_hz = parse_double(parts[2], arg);
      spec.requests = int_flag<std::size_t>(parts[3], arg);
      if (parts.size() == 5) {
        spec.deadline_ms = int_flag<std::uint64_t>(parts[4], arg);
      }
      config.tenants.push_back(std::move(spec));
    } else if (arg == "--trials") {
      synth.trials = int_flag<std::uint64_t>(value(), arg);
    } else if (arg == "--events-per-trial") {
      synth.events_per_trial = parse_double(value(), arg);
    } else if (arg == "--catalogue") {
      synth.catalogue = int_flag<std::uint32_t>(value(), arg);
    } else if (arg == "--dataset") {
      dataset = value();
    } else if (arg == "--seed") {
      config.seed = int_flag<std::uint64_t>(value(), arg);
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--retries") {
      config.max_retries = int_flag<std::size_t>(value(), arg);
    } else if (arg == "--retry-base-ms") {
      config.retry_base_ms = int_flag<std::uint64_t>(value(), arg);
    } else if (arg == "--retry-cap-ms") {
      config.retry_cap_ms = int_flag<std::uint64_t>(value(), arg);
    } else {
      usage("unknown flag: " + arg);
    }
  }
  if (!have_connect) usage("--connect is required");
  if (config.tenants.empty()) usage("at least one --tenant is required");
  for (LoadTenantSpec& spec : config.tenants) {
    spec.synth = synth;
    spec.dataset = dataset;
  }

  try {
    // One connection per tenant so a tenant's pipelining depth never
    // head-of-line blocks another tenant's send path.
    std::vector<std::unique_ptr<ClientTransport>> transports;
    transports.reserve(config.tenants.size());
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
      transports.push_back(std::make_unique<ClientTransport>(endpoint));
    }
    // Route each tenant's requests over its own transport (tenant
    // index is the high half of the request_id the generator assigns).
    const SubmitFn submit = [&](ServeRequest&& request,
                                std::function<void(const ServeReply&)> done) {
      const std::size_t index =
          static_cast<std::size_t>(request.request_id >> 32);
      transports[index]->submit(std::move(request), std::move(done));
    };

    const LoadReport report = run_load(config, submit);
    for (auto& transport : transports) {
      transport->finish(std::chrono::milliseconds(5000));
    }

    perf::Table table({"tenant", "w", "sent", "ok", "rej", "shed", "ddl",
                       "rtry", "lost", "rps", "p50 ms", "p95 ms", "p99 ms"});
    for (const TenantLoadReport& t : report.tenants) {
      table.add_row({t.name, std::to_string(t.weight),
                     std::to_string(t.submitted), std::to_string(t.ok),
                     std::to_string(t.rejected_queue_full + t.rejected_bytes),
                     std::to_string(t.shed_early),
                     std::to_string(t.shed_deadline),
                     std::to_string(t.retries), std::to_string(t.lost),
                     perf::format_fixed(t.throughput_rps, 1),
                     perf::format_fixed(t.latency.p50, 2),
                     perf::format_fixed(t.latency.p95, 2),
                     perf::format_fixed(t.latency.p99, 2)});
    }
    table.print(std::cout);
    std::cout << "total: " << report.total_ok << "/" << report.total_submitted
              << " ok, " << report.total_backpressure << " backpressure, "
              << report.total_retries << " retries, "
              << report.total_shed_deadline << " deadline-shed, "
              << report.total_lost << " lost, wall "
              << perf::format_fixed(report.wall_seconds, 2) << " s\n";

    if (!json_path.empty()) write_json(json_path, report);
    return report.total_lost == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
