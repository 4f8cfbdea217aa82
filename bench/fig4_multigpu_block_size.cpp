// Figure 4: the optimised kernel on four M2090s, varying threads per
// block from 16 to 64. Paper result: best at 32 (the warp size, so a
// whole block swaps on a high-latency stall); 64 does not improve
// (shared-memory pressure); beyond 64 the launch is infeasible
// ("limitation on the block size the shared memory can use").
#include <iostream>

#include "common.hpp"

int main() {
  using namespace ara;
  bench::print_header("Figure 4 — multi-GPU, threads per block",
                      "Fig. 4 (threads/block vs time on 4 GPUs)");

  const simgpu::GpuCostModel model(simgpu::tesla_m2090());
  const OpCounts per_device = bench::scale_ops(bench::paper_ops(), 0.25);
  EngineConfig cfg = paper_config(EngineKind::kMultiGpu);

  perf::Table table(
      {"threads/block", "shared/block", "blocks/SM", "model time", "paper"});
  for (unsigned block : {16u, 32u, 64u, 128u}) {
    cfg.block_threads = block;
    const KernelPlan plan =
        optimized_kernel_plan(cfg, bench::kPaperTrials / 4, per_device);
    const simgpu::KernelCost cost = bench::price(model, plan);
    std::string paper = "-";
    if (block == 32) paper = "4.35 s (best, = warp size)";
    if (block == 64) paper = "no improvement (shared mem)";
    if (block == 128) paper = "not runnable";
    if (!cost.feasible) {
      table.add_row({std::to_string(block),
                     std::to_string(plan.launch.shared_bytes_per_block) + " B",
                     "-", std::string("infeasible: ") +
                              cost.infeasible_reason,
                     paper});
      continue;
    }
    table.add_row({std::to_string(block),
                   std::to_string(plan.launch.shared_bytes_per_block) + " B",
                   std::to_string(cost.occupancy.blocks_per_sm),
                   perf::format_seconds(cost.total_seconds), paper});
  }
  table.print(std::cout);
  std::cout << '\n';

  bench::print_measured_footer(
      ExecutionPolicy::with_engine(EngineKind::kMultiGpu));
  return 0;
}
