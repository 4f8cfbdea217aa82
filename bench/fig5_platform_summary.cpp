// Figure 5: average total execution time of all five implementations
// on the paper's headline workload (1 layer, 15 loss sets, 1M trials
// of 1000 events). Paper: 337.47 / 123.5 / 38.49 / 20.63 / 4.35 s —
// the 77x headline.
#include <iostream>

#include "common.hpp"
#include "core/engine_factory.hpp"
#include "perf/cpu_cost_model.hpp"
#include "perf/machine_profile.hpp"

int main() {
  using namespace ara;
  bench::print_header("Figure 5 — platform summary (all implementations)",
                      "Fig. 5 (average total time per platform)");

  const perf::CpuCostModel cpu(perf::intel_i7_2600());
  const simgpu::GpuCostModel c2075(simgpu::tesla_c2075());
  const simgpu::GpuCostModel m2090(simgpu::tesla_m2090());

  const OpCounts ops = bench::paper_ops();

  const double t_seq = cpu.total_seconds(ops, 1);
  const double t_mc = cpu.total_seconds(ops, 8, 256);
  const double t_basic =
      bench::price(c2075, bench::paper_basic_plan()).total_seconds;
  const double t_opt =
      bench::price(c2075, bench::paper_optimized_plan()).total_seconds;
  const double t_multi =
      bench::price(m2090, bench::paper_optimized_plan(4)).total_seconds;

  struct Row {
    const char* name;
    double model;
    double paper;
  };
  const Row rows[] = {
      {"(i)   sequential CPU", t_seq, 337.47},
      {"(ii)  multi-core CPU (8 cores)", t_mc, 123.5},
      {"(iii) basic GPU (C2075)", t_basic, 38.49},
      {"(iv)  optimised GPU (C2075)", t_opt, 20.63},
      {"(v)   4x GPU (M2090)", t_multi, 4.35},
  };

  perf::Table table(
      {"implementation", "model time", "paper time", "model speedup",
       "paper speedup"});
  for (const Row& r : rows) {
    table.add_row({r.name, perf::format_seconds(r.model),
                   perf::format_seconds(r.paper),
                   perf::format_ratio(t_seq / r.model),
                   perf::format_ratio(337.47 / r.paper)});
  }
  table.print(std::cout);
  std::cout << "\nheadline: model " << perf::format_ratio(t_seq / t_multi)
            << " vs paper ~77x\n\n";

  // Measured: run every engine functionally on the scaled workload,
  // through one shared session.
  AnalysisSession session;
  for (const EngineKind kind : all_engine_kinds()) {
    bench::print_measured_footer(session,
                                 ExecutionPolicy::with_engine(kind));
  }
  return 0;
}
