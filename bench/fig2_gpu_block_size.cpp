// Figure 2: basic GPU implementation on the Tesla C2075, varying the
// number of threads per CUDA block from 64 to 640. Paper result: at
// least 128 threads/block are needed, best performance at 256
// (38.47 s), diminishing/no improvement beyond.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace ara;
  bench::print_header("Figure 2 — basic GPU, threads per block",
                      "Fig. 2 (threads per block vs time, C2075)");

  const simgpu::GpuCostModel model(simgpu::tesla_c2075());
  EngineConfig cfg = paper_config(EngineKind::kGpuBasic);

  perf::Table table({"threads/block", "occupancy", "model time", "paper"});
  for (unsigned block : {64u, 128u, 192u, 256u, 320u, 384u, 448u, 512u,
                         576u, 640u}) {
    cfg.block_threads = block;
    const simgpu::KernelCost cost = bench::price(
        model,
        basic_kernel_plan(cfg, bench::kPaperTrials, bench::paper_ops()));
    std::string paper = "-";
    if (block == 256) paper = "38.47 s (best)";
    table.add_row({std::to_string(block),
                   perf::format_percent(cost.occupancy.occupancy),
                   perf::format_seconds(cost.total_seconds), paper});
  }
  table.print(std::cout);
  std::cout << '\n';

  bench::print_measured_footer(
      ExecutionPolicy::with_engine(EngineKind::kGpuBasic));
  return 0;
}
