// ara_cli — command-line front end for the aggregate risk analysis
// library: generate workloads, run any engine, and report risk
// metrics, with all data sets persisted in the library's binary
// format so the three stages compose like a pipeline.
//
//   ara_cli generate --out DIR [--trials N] [--events-per-trial E]
//                    [--catalogue C] [--elts K] [--layers L] [--seed S]
//   ara_cli run      --in DIR (--out YLT.bin | --ylt-out YLT.bin | --no-ylt)
//                    [--engine NAME|auto]
//                    [--gpus N] [--cores N] [--threads-per-core T]
//                    [--block-threads B] [--chunk-size C]
//                    [--shard-trials N] [--memory-budget MIB]
//                    [--simd auto|scalar|force[:N]]
//                    [--metrics none|layer|portfolio|all]
//                    [--quantiles P1,P2,..] [--return-periods T1,T2,..]
//                    [--workers N [--lease-timeout-ms T] [--failpoints SPEC]]
//                    [--target-rel-err E [--confidence C] [--min-trials N]
//                    [--max-trials N] [--stop-metric M1,M2,..]]
//   ara_cli run      --list-engines
//   ara_cli race     --in DIR --portfolios F1,F2,..
//                    [--objective aal|var:P|tvar:P] [--maximize]
//                    [--confidence C] [--min-trials N] [--max-trials N]
//                    [--shard-trials N] [--engine NAME] [--seed S]
//   ara_cli report   --ylt YLT.bin [--layer I] [--csv PREFIX]
//
// Engine names: sequential_reference, sequential_fused, multicore_cpu,
// gpu_basic, gpu_optimized, multi_gpu_optimized — or "auto", which
// prices every engine with the cost models and runs the cheapest.
//
// --shard-trials / --memory-budget turn on trial-sharded streaming
// execution: the run is split into trial shards (an explicit size, or
// the largest size whose resident footprint fits the budget), computed
// across the session's shard scheduler and merged — bitwise identical
// to the monolithic run (DESIGN.md §5).
//
// --simd selects the hot-path kernel mode (DESIGN.md §8): "scalar" is
// the bitwise-reference sequence (the default), "auto" dispatches the
// widest vector kernel the host supports, "force:N" demands an N-lane
// kernel and fails loudly when the host cannot provide one.
//
// --workers N runs the analysis distributed (DESIGN.md §9): an
// embedded ShardCoordinator leases trial ranges to N spawned
// ara_worker processes and merges their CRC-checksummed result blocks
// into the same bitwise-identical YLT the monolithic run produces —
// surviving crashed, stalled, or corrupting workers along the way.
// --failpoints forwards a fault-injection spec to every worker.
//
// --target-rel-err E turns on adaptive execution (DESIGN.md §10): the
// session runs geometrically growing trial waves and stops once every
// targeted confidence interval (--stop-metric, default the portfolio
// AAL) has relative half-width <= E at the requested --confidence —
// or the budget (--max-trials, default the whole YET) runs out. The
// stopping decision is a pure function of the observed loss prefix,
// so adaptive runs are reproducible for a given seed and shard size.
//
// `race` prices N candidate portfolios against one YET concurrently
// and prunes losers by successive elimination: an arm whose
// union-bound confidence interval is strictly dominated by the best
// arm's is dropped and its remaining trial budget reallocated.
//
// --metrics asks the session for the declarative metric report
// (per-layer and/or portfolio scope), refined by --quantiles (VaR/TVaR
// probability levels) and --return-periods (PML/OEP years). The YLT
// itself is governed by the retention flags: --out keeps it in memory
// and saves it, --ylt-out writes it to disk instead of returning it,
// --no-ylt discards it. Combined with a shard plan (--shard-trials /
// --memory-budget) the non-keep modes stream shard blocks through the
// reducers and chunk writer and never build the layers x trials table;
// without one the run is monolithic and builds it once (DESIGN.md §6).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_factory.hpp"
#include "dist/coordinator.hpp"
#include "int_flag.hpp"
#include "core/metrics/convergence.hpp"
#include "core/metrics/risk_measures.hpp"
#include "core/session.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "perf/report.hpp"
#include "synth/scenarios.hpp"

namespace {

using namespace ara;

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ara_cli generate --out DIR [--trials N] [--events-per-trial E]\n"
      "                   [--catalogue C] [--elts K] [--layers L] [--seed S]\n"
      "  ara_cli run      --in DIR (--out YLT.bin | --ylt-out YLT.bin |\n"
      "                   --no-ylt) [--engine NAME|auto]\n"
      "                   [--gpus N] [--cores N] [--threads-per-core T]\n"
      "                   [--block-threads B] [--chunk-size C]\n"
      "                   [--shard-trials N] [--memory-budget MIB]\n"
      "                   [--simd auto|scalar|force[:N]]\n"
      "                   [--metrics none|layer|portfolio|all]\n"
      "                   [--quantiles P1,P2,..] [--return-periods T1,T2,..]\n"
      "                   [--workers N [--lease-timeout-ms T]\n"
      "                   [--failpoints SPEC]]\n"
      "                   [--target-rel-err E [--confidence C]\n"
      "                   [--min-trials N] [--max-trials N]\n"
      "                   [--stop-metric M1,M2,..]]\n"
      "  ara_cli run      --list-engines\n"
      "  ara_cli race     --in DIR --portfolios F1,F2,..\n"
      "                   [--objective aal|var:P|tvar:P] [--maximize]\n"
      "                   [--confidence C] [--min-trials N]\n"
      "                   [--max-trials N] [--shard-trials N]\n"
      "                   [--engine NAME] [--seed S]\n"
      "  ara_cli report   --ylt YLT.bin [--layer I] [--csv PREFIX]\n"
      "\n"
      "--target-rel-err E runs adaptively (DESIGN.md s10): trial waves\n"
      "grow geometrically and the run stops once every --stop-metric\n"
      "target (aal, var:P, tvar:P — default aal) has confidence-interval\n"
      "relative half-width <= E, or --max-trials is exhausted. race\n"
      "prices several candidate portfolios at once and eliminates arms\n"
      "whose confidence interval is dominated by the best arm's.\n"
      "\n"
      "--workers N runs distributed: a ShardCoordinator leases trial\n"
      "ranges to N spawned ara_worker processes and merges their\n"
      "checksummed blocks — bitwise identical to the monolithic run,\n"
      "surviving worker crashes and stalls (DESIGN.md s9). --failpoints\n"
      "arms fault-injection sites in the workers for chaos drills.\n"
      "\n"
      "YLT retention: --out keeps the table in memory and saves it;\n"
      "--ylt-out writes it to disk instead of returning it; --no-ylt\n"
      "computes metrics only. Resident memory is bounded only when a\n"
      "shard plan is in force (--shard-trials / --memory-budget): then\n"
      "shard blocks stream through the reducers/writer and the full\n"
      "layers x trials table is never built. Without one the run is\n"
      "monolithic and still builds the table once before dropping it.\n";
  std::exit(2);
}

// Flags that take no value.
bool is_switch(const std::string& name) {
  return name == "list-engines" || name == "no-ylt" || name == "maximize";
}

// Per-subcommand flag allowlists. A flag outside its subcommand's set
// is a usage error — a typo like --trails or a run-only flag passed to
// generate must fail loudly, not be silently swallowed into the map
// and fall back to the default value.
const std::set<std::string>& allowed_flags(const std::string& cmd) {
  static const std::set<std::string> generate = {
      "out", "trials", "events-per-trial", "catalogue",
      "elts", "layers", "seed"};
  static const std::set<std::string> run = {
      "in",           "out",           "ylt-out",       "no-ylt",
      "engine",       "gpus",          "cores",         "threads-per-core",
      "block-threads", "chunk-size",   "shard-trials",  "memory-budget",
      "simd",         "metrics",       "quantiles",
      "return-periods", "list-engines", "workers",
      "lease-timeout-ms", "failpoints",
      "target-rel-err", "confidence",  "min-trials",
      "max-trials",   "stop-metric"};
  static const std::set<std::string> race = {
      "in",         "portfolios", "objective",  "maximize",
      "confidence", "min-trials", "max-trials", "shard-trials",
      "engine",     "seed"};
  static const std::set<std::string> report = {"ylt", "layer", "csv"};
  static const std::set<std::string> none = {};
  if (cmd == "generate") return generate;
  if (cmd == "run") return run;
  if (cmd == "race") return race;
  if (cmd == "report") return report;
  return none;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first,
                                               const std::set<std::string>&
                                                   allowed) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument: " + arg);
    const std::string name = arg.substr(2);
    if (allowed.find(name) == allowed.end()) {
      usage("unknown flag for this subcommand: " + arg);
    }
    if (is_switch(name)) {
      flags[name] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    flags[name] = argv[++i];
  }
  return flags;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// An integer flag as the type it fills (tools/int_flag.hpp): "2k",
// "-1" or a value past T's range throws, naming the flag.
template <typename T>
T get_int(const std::map<std::string, std::string>& flags,
          const std::string& key, T fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback
                           : tools::parse_int_flag<T>("--" + key, it->second);
}

double get_double(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    usage("bad number for --" + key + ": " + it->second);
  }
}

// One stopping/objective target: "aal", "var:P", or "tvar:P" (P a
// probability level; ":P" optional, defaulting to 0.99).
metrics::StoppingTarget parse_target(const std::string& token,
                                     const std::string& flag) {
  metrics::StoppingTarget target;
  std::string name = token;
  if (const auto colon = token.find(':'); colon != std::string::npos) {
    name = token.substr(0, colon);
    const std::string level = token.substr(colon + 1);
    try {
      std::size_t consumed = 0;
      target.p = std::stod(level, &consumed);
      if (consumed != level.size()) throw std::invalid_argument(level);
    } catch (const std::exception&) {
      usage("bad quantile level in --" + flag + ": " + token);
    }
  }
  if (name == "aal") {
    target.metric = metrics::StopMetric::kAal;
  } else if (name == "var") {
    target.metric = metrics::StopMetric::kVar;
  } else if (name == "tvar") {
    target.metric = metrics::StopMetric::kTvar;
  } else {
    usage("bad --" + flag + " entry: " + token +
          " (want aal, var:P, or tvar:P)");
  }
  return target;
}

std::string target_label(const metrics::StoppingTarget& target) {
  std::string label = metrics::stop_metric_name(target.metric);
  if (target.metric != metrics::StopMetric::kAal) {
    label += " " + perf::format_percent(target.p);
  }
  return label;
}

std::vector<double> parse_doubles(const std::string& csv,
                                  const std::string& flag) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      // stod stops at the first non-numeric character; a typo like
      // "0.99x" must fail loudly, not silently shift the metric point.
      if (consumed != token.size()) {
        usage("bad number in --" + flag + ": " + token);
      }
      out.push_back(value);
    } catch (const std::exception&) {
      usage("bad number in --" + flag + ": " + token);
    }
  }
  if (out.empty()) usage("--" + flag + " needs a comma-separated list");
  return out;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  const std::string out = get(flags, "out", "");
  if (out.empty()) usage("generate requires --out DIR");

  const auto trials = get_int<std::size_t>(flags, "trials", 10000);
  const auto events = static_cast<double>(
      get_int<std::size_t>(flags, "events-per-trial", 1000));
  const auto catalogue = get_int<EventId>(flags, "catalogue", 100000);
  const auto elts = get_int<std::size_t>(flags, "elts", 15);
  const auto layers = get_int<std::size_t>(flags, "layers", 1);
  const auto seed = get_int<std::uint64_t>(flags, "seed", 2013);

  synth::Catalogue cat = synth::Catalogue::make(catalogue, 6, 1000.0);
  synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.target_events_per_trial = events;
  yc.seed = seed;
  const Yet yet = synth::generate_yet(cat, yc);

  synth::PortfolioGeneratorConfig pc;
  pc.elt_count = std::max<std::size_t>(elts, 2);
  pc.layer_count = layers;
  pc.min_elts_per_layer = std::min<std::size_t>(elts, pc.elt_count);
  pc.max_elts_per_layer = pc.min_elts_per_layer;
  pc.elt.record_count =
      std::min<std::size_t>(20000, static_cast<std::size_t>(catalogue) / 10);
  pc.elt.mean_loss = 2.0e6;
  pc.elt.terms.retention = 1.0e5;
  pc.elt.terms.limit = 5.0e8;
  pc.elt.terms.share = 0.8;
  pc.seed = seed + 1;
  const Portfolio portfolio = synth::generate_portfolio(cat, pc);

  io::save_yet(out + "/yet.bin", yet);
  io::save_portfolio(out + "/portfolio.bin", portfolio);
  std::cout << "wrote " << out << "/yet.bin (" << yet.trial_count()
            << " trials, " << yet.occurrence_count() << " events) and "
            << out << "/portfolio.bin (" << portfolio.elt_count()
            << " ELTs, " << portfolio.layer_count() << " layers)\n";
  return 0;
}

int cmd_list_engines() {
  perf::Table table({"engine", "paper configuration"});
  for (const EngineKind k : all_engine_kinds()) {
    const EngineConfig cfg = paper_config(k);
    std::string note;
    switch (k) {
      case EngineKind::kSequentialReference:
      case EngineKind::kSequentialFused:
        note = "1 core";
        break;
      case EngineKind::kMultiCore:
        note = std::to_string(cfg.cores) + " cores x " +
               std::to_string(cfg.threads_per_core) + " threads/core";
        break;
      case EngineKind::kGpuBasic:
        note = std::to_string(cfg.block_threads) +
               " threads/block (Tesla C2075)";
        break;
      case EngineKind::kGpuOptimized:
        note = std::to_string(cfg.block_threads) + " threads/block, " +
               std::to_string(cfg.chunk_size) + "-event chunks (Tesla C2075)";
        break;
      case EngineKind::kMultiGpu:
        note = "4x Tesla M2090, " + std::to_string(cfg.block_threads) +
               " threads/block";
        break;
    }
    table.add_row({engine_kind_name(k), note});
  }
  table.print(std::cout);
  std::cout << "\n\"auto\" prices every engine with the cost models for the\n"
               "concrete workload and runs the cheapest feasible one.\n";
  return 0;
}

// Resolves a binary that lives next to this one (the spawned workers
// must come from the same build as the coordinator).
std::string sibling_binary(const std::string& name) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return name;  // fall back to PATH lookup
  buf[n] = '\0';
  const std::string self(buf);
  const auto slash = self.find_last_of('/');
  if (slash == std::string::npos) return name;
  return self.substr(0, slash + 1) + name;
}

// Distributed execution (--workers N): embed a ShardCoordinator on a
// unix socket, spawn N ara_worker children against it, run the job to
// completion, reap the fleet, and report the recovery counters. The
// merged result is bitwise identical to the monolithic run.
AnalysisResult run_distributed(const std::map<std::string, std::string>& flags,
                               const std::string& in,
                               const Portfolio& portfolio, const Yet& yet,
                               const ExecutionPolicy& resolved,
                               const AnalysisRequest& request,
                               std::size_t workers) {
  dist::JobSpec job;
  job.workload = dist::JobWorkload::kFiles;
  job.yet_path = in + "/yet.bin";
  job.portfolio_path = in + "/portfolio.bin";
  job.engine = engine_kind_name(*resolved.engine);
  job.simd = static_cast<std::uint8_t>(resolved.simd);
  job.simd_width = resolved.simd_width;
  job.trial_count = yet.trial_count();
  job.layer_count = portfolio.layer_count();

  dist::DistConfig config;
  config.endpoint = serve::Endpoint::parse(
      "unix:/tmp/ara_dist_" + std::to_string(::getpid()) + ".sock");
  config.job = job;
  config.expected_workers = workers;
  config.lease_trials = get_int<std::uint64_t>(flags, "shard-trials", 0);
  config.lease_timeout_ms =
      get_int<std::uint64_t>(flags, "lease-timeout-ms", 1000);

  dist::ShardCoordinator coordinator(config);
  const std::string worker_bin = sibling_binary("ara_worker");
  const std::string endpoint_arg = "unix:" + coordinator.endpoint().path;
  const std::string failpoints = get(flags, "failpoints", "");

  std::vector<pid_t> children;
  for (std::size_t i = 0; i < workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("fork failed while spawning workers");
    }
    if (pid == 0) {
      const std::string id = "worker-" + std::to_string(i);
      if (failpoints.empty()) {
        ::execl(worker_bin.c_str(), "ara_worker", "--connect",
                endpoint_arg.c_str(), "--id", id.c_str(), nullptr);
      } else {
        ::execl(worker_bin.c_str(), "ara_worker", "--connect",
                endpoint_arg.c_str(), "--id", id.c_str(), "--failpoints",
                failpoints.c_str(), nullptr);
      }
      std::cerr << "error: exec " << worker_bin << " failed\n";
      ::_exit(127);
    }
    children.push_back(pid);
  }

  dist::DistResult result = coordinator.run(request);
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }

  const dist::DistCounters& c = result.counters;
  perf::Table table({"distributed", "count"});
  table.add_row({"workers joined", std::to_string(c.workers_joined)});
  table.add_row({"workers lost", std::to_string(c.workers_lost)});
  table.add_row({"leases granted", std::to_string(c.leases_granted)});
  table.add_row({"leases reassigned", std::to_string(c.leases_reassigned)});
  table.add_row({"blocks accepted", std::to_string(c.blocks_accepted)});
  table.add_row({"duplicate blocks", std::to_string(c.duplicate_blocks)});
  table.add_row({"corrupt blocks", std::to_string(c.corrupt_blocks)});
  table.add_row({"torn frames", std::to_string(c.torn_frames)});
  table.add_row({"local shards", std::to_string(c.local_shards)});
  table.print(std::cout);
  std::cout << '\n';
  return std::move(result.analysis);
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  if (flags.count("list-engines")) return cmd_list_engines();

  const std::string in = get(flags, "in", "");
  const std::string out = get(flags, "out", "");
  const std::string ylt_out = get(flags, "ylt-out", "");
  const bool no_ylt = flags.count("no-ylt") > 0;
  if (in.empty()) usage("run requires --in DIR");
  if (out.empty() && ylt_out.empty() && !no_ylt) {
    usage("run requires --out FILE, --ylt-out FILE, or --no-ylt");
  }
  if (!out.empty() && (no_ylt || !ylt_out.empty())) {
    usage("--out keeps the YLT in memory; it cannot combine with "
          "--no-ylt / --ylt-out");
  }
  if (no_ylt && !ylt_out.empty()) usage("--no-ylt contradicts --ylt-out");
  const std::string engine_name = get(flags, "engine", "multi_gpu_optimized");

  // Declarative metric plan.
  MetricsSpec spec;
  const std::string scope = get(flags, "metrics", "none");
  if (scope == "layer") {
    spec = MetricsSpec::layer_summaries();
  } else if (scope == "portfolio") {
    spec = MetricsSpec::portfolio_rollup();
  } else if (scope == "all") {
    spec = MetricsSpec::all();
  } else if (scope != "none") {
    usage("--metrics must be none, layer, portfolio, or all");
  }
  if (flags.count("quantiles") || flags.count("return-periods")) {
    if (scope == "none") {
      usage("--quantiles / --return-periods need --metrics "
            "layer|portfolio|all");
    }
    if (flags.count("quantiles")) {
      spec.quantiles = parse_doubles(flags.at("quantiles"), "quantiles");
    }
    if (flags.count("return-periods")) {
      spec.return_periods =
          parse_doubles(flags.at("return-periods"), "return-periods");
    }
  }
  if (no_ylt && scope == "none") {
    usage("--no-ylt without --metrics would compute nothing");
  }

  // Adaptive execution: --target-rel-err is the opt-in; the companion
  // flags refine it and are meaningless without it.
  std::optional<metrics::StoppingSpec> stopping;
  if (flags.count("target-rel-err")) {
    metrics::StoppingSpec sspec;
    sspec.relative_tolerance = get_double(flags, "target-rel-err", 0.05);
    sspec.confidence = get_double(flags, "confidence", sspec.confidence);
    sspec.min_trials = get_int(flags, "min-trials", sspec.min_trials);
    sspec.max_trials = get_int<std::size_t>(flags, "max-trials", 0);
    if (flags.count("stop-metric")) {
      sspec.targets.clear();
      std::stringstream ss(flags.at("stop-metric"));
      std::string token;
      while (std::getline(ss, token, ',')) {
        if (token.empty()) continue;
        sspec.targets.push_back(parse_target(token, "stop-metric"));
      }
      if (sspec.targets.empty()) {
        usage("--stop-metric needs a comma-separated list of targets");
      }
    }
    if (!ylt_out.empty()) {
      usage("--target-rel-err cannot combine with --ylt-out (the spill "
            "format is sized for the fixed trial count)");
    }
    stopping = std::move(sspec);
  } else if (flags.count("confidence") || flags.count("min-trials") ||
             flags.count("max-trials") || flags.count("stop-metric")) {
    usage("--confidence / --min-trials / --max-trials / --stop-metric "
          "need --target-rel-err (they refine the adaptive run)");
  }

  ExecutionPolicy policy;
  policy.gpu_count = get_int<std::size_t>(flags, "gpus", 4);
  policy.shard_trials = get_int<std::size_t>(flags, "shard-trials", 0);
  const auto budget_mib = get_int<std::size_t>(flags, "memory-budget", 0);
  if (budget_mib > std::numeric_limits<std::size_t>::max() >> 20) {
    throw std::invalid_argument("--memory-budget " +
                                std::to_string(budget_mib) +
                                " MiB overflows a byte count");
  }
  policy.memory_budget_bytes = budget_mib << 20;  // flag is in MiB

  // --simd auto|scalar|force[:N]. The policy fields are authoritative
  // over any engine config (engine_factory stamps them into the
  // resolved config), so setting them here covers both the auto-mode
  // predictions and the final run.
  if (const std::string simd_arg = get(flags, "simd", ""); !simd_arg.empty()) {
    std::string mode = simd_arg;
    if (const auto colon = simd_arg.find(':'); colon != std::string::npos) {
      mode = simd_arg.substr(0, colon);
      const auto width =
          tools::parse_int_flag<unsigned>("--simd", simd_arg.substr(colon + 1));
      if (mode != "force" || width == 0) usage("bad --simd value: " + simd_arg);
      policy.simd_width = width;
    }
    const auto parsed = simd::simd_policy_from_name(mode);
    if (!parsed) usage("bad --simd value: " + simd_arg);
    policy.simd = *parsed;
  }

  const Yet yet = io::load_yet(in + "/yet.bin");
  const Portfolio portfolio = io::load_portfolio(in + "/portfolio.bin");

  AnalysisSession session(policy);

  // Tuning knobs apply on top of each engine's paper config — both to
  // the run and to the auto-mode predictions, so the selection prices
  // exactly the configurations it chooses between.
  const auto apply_tuning = [&flags](EngineConfig cfg) {
    cfg.cores = get_int(flags, "cores", cfg.cores);
    cfg.threads_per_core =
        get_int(flags, "threads-per-core", cfg.threads_per_core);
    cfg.block_threads = get_int(flags, "block-threads", cfg.block_threads);
    cfg.chunk_size = get_int(flags, "chunk-size", cfg.chunk_size);
    return cfg;
  };

  EngineKind kind;
  bool auto_selected = false;
  double predicted_seconds = 0.0;
  if (engine_name == "auto") {
    // ExecutionPolicy::kAuto: rank every engine with the cost models
    // on this workload (each at its tuned config), then run the
    // cheapest feasible one.
    std::vector<EnginePrediction> rows;
    for (const EngineKind k : all_engine_kinds()) {
      ExecutionPolicy tuned = policy;
      tuned.config = apply_tuning(paper_config(k));
      for (EnginePrediction& p : session.predict(portfolio, yet, tuned)) {
        if (p.kind == k) rows.push_back(std::move(p));
      }
    }
    const EnginePrediction* best = nullptr;
    for (const EnginePrediction& p : rows) {
      if (!p.feasible) continue;
      if (!best || p.seconds < best->seconds) best = &p;
    }
    if (!best) usage("no engine is feasible for this workload");
    kind = best->kind;
    predicted_seconds = best->seconds;
    auto_selected = true;

    perf::Table table({"engine", "predicted (paper hw)", "note"});
    for (const EnginePrediction& p : rows) {
      table.add_row({engine_kind_name(p.kind),
                     p.feasible ? perf::format_seconds(p.seconds)
                                : "infeasible",
                     p.kind == kind ? "<- selected" : p.note});
    }
    table.print(std::cout);
    std::cout << '\n';
  } else {
    const std::optional<EngineKind> named = engine_kind_from_name(engine_name);
    if (!named) usage("unknown engine: " + engine_name);
    kind = *named;
  }

  const EngineConfig cfg = apply_tuning(paper_config(kind));

  AnalysisRequest request;
  request.portfolio = &portfolio;
  request.yet = &yet;
  request.metrics = spec;
  if (!ylt_out.empty()) {
    request.ylt_retention = YltRetention::kSpillToFile;
    request.ylt_path = ylt_out;
  } else if (no_ylt) {
    request.ylt_retention = YltRetention::kDiscard;
  }
  ExecutionPolicy resolved = policy;
  resolved.engine = kind;
  resolved.config = cfg;
  request.policy = resolved;
  request.stopping = stopping;

  const auto workers = get_int<std::size_t>(flags, "workers", 0);
  if (workers == 0 &&
      (flags.count("failpoints") || flags.count("lease-timeout-ms"))) {
    usage("--failpoints / --lease-timeout-ms need --workers N");
  }
  if (workers > 0) {
    if (auto_selected) {
      usage("--workers needs a concrete --engine (auto-selection prices "
            "local execution, not the fleet)");
    }
    // The tuning knobs are not forwarded to workers (they run the
    // paper config for the chosen engine); refuse them rather than
    // silently ignoring them.
    for (const char* knob : {"gpus", "cores", "threads-per-core",
                             "block-threads", "chunk-size",
                             "memory-budget"}) {
      if (flags.count(knob)) {
        usage(std::string("--") + knob + " does not combine with --workers "
              "(workers run the engine's paper configuration)");
      }
    }
  }

  const AnalysisResult analysis =
      workers > 0 ? run_distributed(flags, in, portfolio, yet, resolved,
                                    request, workers)
                  : session.run(request);
  const SimulationResult& result = analysis.simulation;
  if (!out.empty()) io::save_ylt(out, result.ylt);

  std::cout << "engine    : " << result.engine_name
            << (auto_selected ? " (auto-selected)" : "") << '\n'
            << "trials    : " << yet.trial_count() << " x "
            << portfolio.layer_count() << " layer(s)\n";
  if (!result.simd_isa.empty()) {
    std::cout << "simd      : " << simd::simd_policy_name(resolved.simd)
              << " (" << result.simd_isa << " kernel)\n";
  }
  if (workers > 0) {
    std::cout << "leases    : " << analysis.shard_count
              << " (distributed across " << workers << " worker(s))\n";
  } else if (analysis.shard_count > 1) {
    const ShardPlan plan = session.shard_plan(portfolio, yet, resolved);
    std::cout << "shards    : " << analysis.shard_count << " x "
              << plan.shard_trials << " trials (streaming merge)\n";
  }
  if (request.stopping) {
    std::cout << "adaptive  : " << analysis.trials_executed << " of "
              << yet.trial_count() << " trials "
              << (analysis.stopped_early ? "(stopped early)\n"
                                         : "(ran to the budget)\n");
    for (const metrics::TargetStatus& t : analysis.half_widths) {
      std::cout << "  " << target_label(t.target) << " : "
                << perf::format_fixed(t.estimate, 2) << " +/- "
                << perf::format_fixed(t.half_width, 2) << " (rel "
                << perf::format_percent(t.relative_half_width) << ", "
                << (t.satisfied ? "within" : "outside") << " tolerance)\n";
    }
  }
  std::cout
            << "lookups   : " << result.ops.elt_lookups << '\n'
            << "wall      : " << perf::format_seconds(result.wall_seconds)
            << " (this host)\n"
            << "simulated : "
            << perf::format_seconds(result.simulated_seconds)
            << " (paper hardware)\n";
  if (auto_selected) {
    std::cout << "predicted : " << perf::format_seconds(predicted_seconds)
              << " (cost model, drove the selection)\n";
  }

  // The metric report, when requested: one row per scope entry, the
  // requested quantile / return-period columns.
  if (spec.any()) {
    std::vector<std::string> header = {"scope", "AAL", "std dev"};
    for (const double p : spec.quantiles) {
      header.push_back("VaR " + perf::format_percent(p));
      header.push_back("TVaR " + perf::format_percent(p));
    }
    for (const double t : spec.return_periods) {
      header.push_back("PML " + perf::format_fixed(t, 0) + "yr");
    }
    for (const double t : spec.return_periods) {
      header.push_back("OEP " + perf::format_fixed(t, 0) + "yr");
    }
    perf::Table table(header);
    const auto add_row = [&table, &spec](const metrics::LayerMetrics& m,
                                         bool occurrence) {
      std::vector<std::string> row = {m.label, perf::format_fixed(m.aal, 2),
                                      perf::format_fixed(m.std_dev, 2)};
      for (const metrics::QuantileMetric& q : m.quantiles) {
        row.push_back(perf::format_fixed(q.var, 2));
        row.push_back(perf::format_fixed(q.tvar, 2));
      }
      for (const metrics::ReturnPeriodMetric& r : m.pml) {
        row.push_back(perf::format_fixed(r.loss, 2));
      }
      for (std::size_t i = 0; i < spec.return_periods.size(); ++i) {
        row.push_back(occurrence ? perf::format_fixed(m.oep[i].loss, 2)
                                 : "-");
      }
      table.add_row(row);
    };
    for (const metrics::LayerMetrics& m : analysis.metrics.layers) {
      add_row(m, /*occurrence=*/true);
    }
    if (analysis.metrics.portfolio) {
      add_row(analysis.metrics.portfolio->totals, /*occurrence=*/false);
    }
    std::cout << '\n';
    table.print(std::cout);
    if (analysis.metrics.portfolio &&
        analysis.metrics.portfolio->capital_allocation) {
      std::cout << "diversification benefit (TVaR "
                << perf::format_percent(analysis.metrics.portfolio->capital_p)
                << "): "
                << perf::format_fixed(
                       analysis.metrics.portfolio
                           ->diversification_benefit_tvar, 2)
                << '\n';
    }
  }

  if (!out.empty()) std::cout << "wrote     : " << out << '\n';
  if (!analysis.ylt_path.empty()) {
    // Only a sharded spill actually streams; a monolithic run built
    // the table in RAM and spilled it as one block.
    std::cout << "wrote     : " << analysis.ylt_path
              << (analysis.shard_count > 1
                      ? " (streamed shard blocks, never resident)\n"
                      : " (spilled whole table)\n");
  }
  if (no_ylt) std::cout << "ylt       : discarded (metric-only run)\n";
  return 0;
}

// race: price N candidate portfolios against one YET with BAI-style
// successive elimination (DESIGN.md §10). All arms share the trial
// schedule (common random numbers), so elimination compares like with
// like; a dropped arm's remaining budget goes to the survivors.
int cmd_race(const std::map<std::string, std::string>& flags) {
  const std::string in = get(flags, "in", "");
  if (in.empty()) usage("race requires --in DIR (the yet.bin to price)");
  const std::string list = get(flags, "portfolios", "");
  if (list.empty()) {
    usage("race requires --portfolios F1,F2,.. (at least 2 files)");
  }
  std::vector<std::string> paths;
  {
    std::stringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) paths.push_back(token);
    }
  }
  if (paths.size() < 2) usage("race needs at least 2 portfolios");

  const Yet yet = io::load_yet(in + "/yet.bin");
  std::vector<Portfolio> portfolios;
  portfolios.reserve(paths.size());
  for (const std::string& path : paths) {
    portfolios.push_back(io::load_portfolio(path));
  }
  std::vector<RaceEntry> entries;
  entries.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto slash = paths[i].find_last_of('/');
    entries.push_back({slash == std::string::npos
                           ? paths[i]
                           : paths[i].substr(slash + 1),
                       &portfolios[i]});
  }

  RaceSpec spec;
  spec.objective = parse_target(get(flags, "objective", "aal"), "objective");
  spec.minimize = flags.count("maximize") == 0;
  spec.confidence = get_double(flags, "confidence", spec.confidence);
  spec.min_trials = get_int(flags, "min-trials", spec.min_trials);
  spec.max_trials = get_int<std::size_t>(flags, "max-trials", 0);
  spec.seed = get_int(flags, "seed", spec.seed);

  ExecutionPolicy policy;
  policy.shard_trials = get_int<std::size_t>(flags, "shard-trials", 0);
  if (const std::string engine_name = get(flags, "engine", "");
      !engine_name.empty()) {
    const std::optional<EngineKind> named = engine_kind_from_name(engine_name);
    if (!named) usage("unknown engine: " + engine_name);
    policy.engine = *named;
  }
  spec.policy = policy;

  AnalysisSession session;
  const RaceResult result = session.race(entries, yet, spec);

  perf::Table table({"arm", target_label(spec.objective), "+/-", "trials",
                     "standing"});
  for (std::size_t i = 0; i < result.arms.size(); ++i) {
    const RaceArm& arm = result.arms[i];
    std::string standing;
    if (i == result.winner) {
      standing = "<- winner";
    } else if (arm.eliminated) {
      standing = "eliminated at " +
                 std::to_string(arm.eliminated_at_trials) + " trials";
    } else {
      standing = "survived";
    }
    table.add_row({arm.label, perf::format_fixed(arm.estimate, 2),
                   perf::format_fixed(arm.half_width, 2),
                   std::to_string(arm.trials_executed), standing});
  }
  table.print(std::cout);
  const std::size_t per_arm_budget =
      spec.max_trials == 0 ? yet.trial_count()
                           : std::min(spec.max_trials, yet.trial_count());
  std::cout << '\n'
            << "objective : " << (spec.minimize ? "minimize " : "maximize ")
            << target_label(spec.objective) << " at "
            << perf::format_percent(spec.confidence) << " confidence\n"
            << "winner    : " << result.arms[result.winner].label
            << (result.separated ? " (field separated by confidence bounds)"
                                 : " (budget exhausted; best point estimate)")
            << '\n'
            << "trials    : " << result.total_trials << " total vs "
            << per_arm_budget * entries.size()
            << " for pricing every arm at full budget\n";
  return 0;
}

int cmd_report(const std::map<std::string, std::string>& flags) {
  const std::string ylt_path = get(flags, "ylt", "");
  if (ylt_path.empty()) usage("report requires --ylt FILE");
  const Ylt ylt = io::load_ylt(ylt_path);
  const auto layer = get_int<std::size_t>(flags, "layer", 0);
  if (layer >= ylt.layer_count()) usage("--layer out of range");

  const metrics::LayerRiskSummary m = metrics::summarize_layer(ylt, layer);
  perf::Table table({"metric", "value"});
  table.add_row({"trials", std::to_string(ylt.trial_count())});
  table.add_row({"AAL", perf::format_fixed(m.aal, 2)});
  table.add_row({"std dev", perf::format_fixed(m.std_dev, 2)});
  table.add_row({"VaR 99%", perf::format_fixed(m.var_99, 2)});
  table.add_row({"TVaR 99%", perf::format_fixed(m.tvar_99, 2)});
  table.add_row({"PML 100yr", perf::format_fixed(m.pml_100yr, 2)});
  table.add_row({"PML 250yr", perf::format_fixed(m.pml_250yr, 2)});
  table.add_row({"OEP 100yr", perf::format_fixed(m.oep_100yr, 2)});
  table.add_row({"max annual", perf::format_fixed(m.max_annual, 2)});
  table.print(std::cout);

  // Convergence diagnostic: is the YET large enough for 1% AAL error?
  const auto losses = ylt.layer_annual_vector(layer);
  if (losses.size() >= 100 && m.aal > 0.0) {
    const std::size_t needed =
        metrics::required_trials_for_aal(losses, 0.01, 0.95);
    std::cout << "\ntrials for 1% AAL standard error at 95%: " << needed
              << (needed <= losses.size() ? " (satisfied)" : " (NOT met)")
              << '\n';
  }

  const std::string csv_prefix = get(flags, "csv", "");
  if (!csv_prefix.empty()) {
    std::ofstream ylt_csv(csv_prefix + "_ylt.csv");
    io::write_ylt_csv(ylt_csv, ylt);
    const metrics::EpCurve aep(losses);
    std::ofstream aep_csv(csv_prefix + "_aep.csv");
    io::write_ep_curve_csv(aep_csv, aep,
                           {2, 5, 10, 25, 50, 100, 250, 500, 1000});
    std::cout << "wrote " << csv_prefix << "_ylt.csv and " << csv_prefix
              << "_aep.csv\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd != "generate" && cmd != "run" && cmd != "race" && cmd != "report") {
    usage("unknown command: " + cmd);
  }
  try {
    const auto flags = parse_flags(argc, argv, 2, allowed_flags(cmd));
    if (cmd == "generate") return cmd_generate(flags);
    if (cmd == "run") return cmd_run(flags);
    if (cmd == "race") return cmd_race(flags);
    return cmd_report(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
