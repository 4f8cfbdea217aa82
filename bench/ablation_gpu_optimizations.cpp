// Ablation of the paper's four GPU optimisations (Sec. III): chunking
// into shared memory, loop unrolling, float instead of double, and
// register accumulation. The paper reports only their combined effect
// (38.47 s -> 20.63 s, ~1.9x); this bench quantifies each one by
// switching it off from the fully optimised configuration, and on from
// the basic configuration.
#include <iostream>

#include "common.hpp"

namespace {

using namespace ara;

struct Toggle {
  const char* name;
  bool chunking, unroll, use_float, registers;
};

double model_seconds(const Toggle& t) {
  const simgpu::GpuCostModel model(simgpu::tesla_c2075());
  EngineConfig cfg = paper_config(EngineKind::kGpuOptimized);
  cfg.chunking = t.chunking;
  cfg.unroll = t.unroll;
  cfg.use_float = t.use_float;
  cfg.use_registers = t.registers;
  const KernelPlan plan =
      optimized_kernel_plan(cfg, bench::kPaperTrials, bench::paper_ops());
  // Chunked kernels are bound to small blocks by shared memory; the
  // unchunked variants use the basic kernel's 256-thread blocks.
  const simgpu::LaunchConfig launch =
      t.chunking ? plan.launch : bench::paper_basic_plan().launch;
  return model.estimate(launch, plan.traits, plan.ops).total_seconds;
}

}  // namespace

int main() {
  using namespace ara;
  bench::print_header(
      "Ablation — the four GPU optimisations",
      "Sec. III/IV-B (chunking, unrolling, precision, registers)");

  const Toggle all_on{"all optimisations (paper opt, 20.63 s)", true, true,
                      true, true};
  const Toggle all_off{"none (paper basic, 38.47 s)", false, false, false,
                       false};
  const Toggle rows[] = {
      all_on,
      {"without chunking", false, true, true, true},
      {"without loop unrolling", true, false, true, true},
      {"without float (double tables)", true, true, false, true},
      {"without register scratch", true, true, true, false},
      all_off,
      {"basic + chunking only", true, false, false, false},
      {"basic + float only", false, false, true, false},
  };

  const double t_on = model_seconds(all_on);
  perf::Table table({"configuration", "model time", "vs optimised"});
  for (const Toggle& t : rows) {
    const double s = model_seconds(t);
    table.add_row({t.name, perf::format_seconds(s),
                   perf::format_ratio(s / t_on)});
  }
  table.print(std::cout);
  std::cout << "\npaper anchor: all-on 20.63 s vs all-off 38.47 s "
               "(~1.9x combined)\n\n";

  // The paper's data-structure comparison: independent direct access
  // tables vs the rejected combined-ELT layout, both at 256
  // threads/block on the full workload.
  {
    const simgpu::GpuCostModel model(simgpu::tesla_c2075());
    const KernelPlan independent = bench::paper_basic_plan();
    const double ti = bench::price(model, independent).total_seconds;
    // Combined layout: cooperative row loads serialise on the shared-
    // memory request/deliver handshake (2 extra shared accesses per
    // lookup, MLP collapses to 1; see GpuCombinedTableEngine).
    KernelPlan combined = independent;
    combined.traits.chunked = true;
    combined.traits.scratch_in_global = false;
    combined.traits.cooperative_load_penalty = 0.75;
    combined.ops = bench::paper_ops();
    combined.ops.shared_accesses =
        combined.ops.elt_lookups * 2 +
        combined.ops.occurrence_ops * kScratchTouchesPerEvent;
    const double tc = bench::price(model, combined).total_seconds;
    std::cout << "data-structure comparison (model, full scale): "
                 "independent tables "
              << perf::format_seconds(ti) << " vs combined table "
              << perf::format_seconds(tc) << " ("
              << perf::format_ratio(tc / ti)
              << " slower — the paper's rejected 'second "
                 "implementation')\n\n";
  }

  // Measured: functional execution of the two endpoints.
  AnalysisSession session;
  bench::print_measured_footer(
      session, ExecutionPolicy::with_engine(EngineKind::kGpuOptimized));
  bench::print_measured_footer(
      session, ExecutionPolicy::with_engine(EngineKind::kGpuBasic));
  return 0;
}
