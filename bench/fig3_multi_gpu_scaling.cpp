// Figure 3: the optimised engine on one to four Tesla M2090s.
// Paper result: best average 4.35 s on four GPUs — ~4x a single M2090
// and ~5x the optimised single C2075 — at ~100% efficiency (Fig. 3b).
#include <iostream>

#include "common.hpp"

int main() {
  using namespace ara;
  bench::print_header("Figure 3 — multi-GPU scaling (4x Tesla M2090)",
                      "Fig. 3a (GPUs vs time), Fig. 3b (efficiency)");

  const simgpu::GpuCostModel model(simgpu::tesla_m2090());

  auto device_seconds = [&](unsigned gpus) {
    // Even trial decomposition: each device runs 1/gpus of the work.
    return bench::price(model, bench::paper_optimized_plan(gpus))
        .total_seconds;
  };

  const double t1 = device_seconds(1);
  perf::Table table({"GPUs", "model time", "speedup", "efficiency", "paper"});
  for (unsigned gpus = 1; gpus <= 4; ++gpus) {
    const double t = device_seconds(gpus);
    std::string paper = "-";
    if (gpus == 1) paper = "~17.4 s (4x of 4.35 s)";
    if (gpus == 4) paper = "4.35 s, ~100% efficiency";
    table.add_row({std::to_string(gpus), perf::format_seconds(t),
                   perf::format_ratio(t1 / t),
                   perf::format_percent(t1 / (gpus * t)), paper});
  }
  table.print(std::cout);
  std::cout << '\n';

  bench::print_measured_footer(
      ExecutionPolicy::with_engine(EngineKind::kMultiGpu));
  return 0;
}
