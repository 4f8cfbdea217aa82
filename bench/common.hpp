// Shared helpers for the figure-reproduction benchmarks.
//
// Every benchmark reports, for its figure:
//   * the PAPER column   — the value published in the paper (where the
//     paper gives one),
//   * the MODEL column   — the cost model evaluated at the paper's full
//     workload (1M trials x 1000 events, 15 ELTs, 2M-event catalogue)
//     on the paper's hardware profiles; the GPU rows price the engines'
//     own kernel plans (core/gpu_engines.hpp) at the paper's
//     configuration,
//   * a measured footer  — real wall-clock of the same engine running
//     the scaled-down workload on this host (functional execution).
//
// The MODEL numbers are what reproduce the figures; the measured runs
// prove the engines actually execute the workload (see DESIGN.md §2).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "core/gpu_engines.hpp"
#include "core/session.hpp"
#include "perf/report.hpp"
#include "simgpu/gpu_cost_model.hpp"
#include "synth/scenarios.hpp"

namespace ara::bench {

/// Operation counts of the paper's headline workload.
inline OpCounts paper_ops() {
  OpCounts ops;
  ops.event_fetches = 1'000'000'000ULL;
  ops.elt_lookups = 15'000'000'000ULL;
  ops.financial_ops = 15'000'000'000ULL;
  ops.occurrence_ops = 1'000'000'000ULL;
  ops.aggregate_ops = 1'000'000'000ULL;
  return ops;
}

inline OpCounts scale_ops(OpCounts ops, double factor) {
  ops.event_fetches = static_cast<std::uint64_t>(ops.event_fetches * factor);
  ops.elt_lookups = static_cast<std::uint64_t>(ops.elt_lookups * factor);
  ops.financial_ops = static_cast<std::uint64_t>(ops.financial_ops * factor);
  ops.occurrence_ops =
      static_cast<std::uint64_t>(ops.occurrence_ops * factor);
  ops.aggregate_ops = static_cast<std::uint64_t>(ops.aggregate_ops * factor);
  return ops;
}

/// Trials of the paper's headline workload (of 1000 events each).
constexpr std::size_t kPaperTrials = 1'000'000;

/// Simulated cost of one launch of `plan` on `model`'s device. The
/// plans (core/gpu_engines.hpp) are the ones the engines charge, so a
/// figure prices exactly the kernel an engine runs.
inline simgpu::KernelCost price(const simgpu::GpuCostModel& model,
                                const KernelPlan& plan) {
  return model.estimate(plan.launch, plan.traits, plan.ops);
}

/// The basic kernel at the paper's configuration (256 threads/block)
/// over the headline workload.
inline KernelPlan paper_basic_plan() {
  return basic_kernel_plan(paper_config(EngineKind::kGpuBasic), kPaperTrials,
                           paper_ops());
}

/// The optimised kernel at the paper's configuration (32 threads/block,
/// 88-event chunks, float tables) over one device's share of the
/// headline workload split evenly across `devices` GPUs.
inline KernelPlan paper_optimized_plan(unsigned devices = 1) {
  return optimized_kernel_plan(paper_config(EngineKind::kGpuOptimized),
                               kPaperTrials / devices,
                               scale_ops(paper_ops(), 1.0 / devices));
}

/// Scale factor for the measured footer runs; override with
/// ARA_BENCH_SCALE (divides the paper's 1M trials).
inline std::size_t measured_scale() {
  if (const char* env = std::getenv("ARA_BENCH_SCALE")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 2000;  // 500 trials x 1000 events: ~10^7 lookups per run
}

/// Runs the engine `policy` describes on a paper-shaped scaled
/// workload through `session` and prints the measured wall clock (the
/// functional-execution proof line).
inline void print_measured_footer(AnalysisSession& session,
                                  const ExecutionPolicy& policy) {
  const std::size_t scale = measured_scale();
  const synth::Scenario s = synth::paper_scaled(scale);
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  request.policy = policy;
  const SimulationResult r = session.run(request).simulation;
  std::cout << "measured: " << r.engine_name << " on paper workload / "
            << scale << " (" << s.yet.trial_count() << " trials): "
            << perf::format_seconds(r.wall_seconds)
            << " wall on this host (functional execution of "
            << r.ops.elt_lookups << " lookups)\n";
}

/// Single-run convenience: a throwaway session around one footer.
inline void print_measured_footer(const ExecutionPolicy& policy) {
  AnalysisSession session(policy);
  print_measured_footer(session, policy);
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace ara::bench
