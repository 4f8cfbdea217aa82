#include "simgpu/sim_device.hpp"

#include <stdexcept>

namespace ara::simgpu {

SimDevice::SimDevice(DeviceSpec spec) : model_(std::move(spec)) {}

void SimDevice::alloc(std::uint64_t bytes) {
  if (allocated_ + bytes > spec().global_mem_bytes) {
    throw DeviceMemoryExhausted();
  }
  allocated_ += bytes;
}

void SimDevice::free(std::uint64_t bytes) {
  if (bytes > allocated_) {
    throw std::logic_error("SimDevice::free: releasing more than allocated");
  }
  allocated_ -= bytes;
}

double SimDevice::copy(std::uint64_t bytes) {
  const double s = model_.transfer_seconds(bytes);
  elapsed_ += s;
  transfer_ += s;
  phases_[perf::Phase::kTransfer] += s;
  return s;
}

KernelCost SimDevice::launch_cost_only(const std::string& name,
                                       const LaunchConfig& cfg,
                                       const KernelTraits& traits,
                                       const ara::OpCounts& ops) {
  KernelCost cost = model_.estimate(cfg, traits, ops);
  if (!cost.feasible) {
    throw InfeasibleLaunch("SimDevice::launch(" + name +
                               "): infeasible launch configuration (" +
                               cost.infeasible_reason + ")",
                           cost.infeasible_reason);
  }
  elapsed_ += cost.total_seconds;
  phases_ += cost.phases;
  launches_.push_back({name, cfg, cost});
  return cost;
}

KernelCost SimDevice::launch(
    const std::string& name, const LaunchConfig& cfg,
    const KernelTraits& traits, const ara::OpCounts& ops,
    const std::function<void(const ThreadCtx&)>& kernel) {
  // Validate & charge first so infeasible shapes fail before any work,
  // as a real cudaLaunchKernel would.
  KernelCost cost = launch_cost_only(name, cfg, traits, ops);

  ThreadCtx ctx;
  for (unsigned b = 0; b < cfg.grid_blocks; ++b) {
    ctx.block = b;
    for (unsigned t = 0; t < cfg.block_threads; ++t) {
      ctx.thread = t;
      ctx.gid = static_cast<std::size_t>(b) * cfg.block_threads + t;
      kernel(ctx);
    }
  }
  return cost;
}

void SimDevice::reset_timeline() {
  elapsed_ = 0.0;
  transfer_ = 0.0;
  phases_ = perf::PhaseBreakdown{};
  launches_.clear();
}

}  // namespace ara::simgpu
