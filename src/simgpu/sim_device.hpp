// SimDevice: one simulated GPU.
//
// A SimDevice owns a device-memory budget (allocations are checked
// against the card's global memory, as real cudaMalloc would fail),
// a transfer ledger (PCIe copies are charged to the simulated
// timeline), and a launch API. `launch` executes the kernel functor
// *functionally* on the host — every (block, thread) pair runs and
// produces real output — while the analytic cost model converts the
// launch shape + operation counts into simulated kernel time.
//
// The simulated clock is the device's serialised timeline: kernels and
// transfers issued to the same device accumulate, mirroring a single
// CUDA stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/gpu_cost_model.hpp"

namespace ara::simgpu {

/// Record of one kernel launch (diagnostics and tests).
struct LaunchRecord {
  std::string kernel_name;
  LaunchConfig config;
  KernelCost cost;
};

class SimDevice {
 public:
  explicit SimDevice(DeviceSpec spec);

  const DeviceSpec& spec() const noexcept { return model_.spec(); }
  const GpuCostModel& model() const noexcept { return model_; }

  // --- Device memory ------------------------------------------------------

  /// Registers a device allocation of `bytes`. Throws
  /// DeviceMemoryExhausted (a std::bad_alloc) when the card's global
  /// memory would be exceeded (the real failure mode that forces the
  /// YET to be stored compactly; see DESIGN.md).
  void alloc(std::uint64_t bytes);

  /// Releases a previously registered allocation.
  void free(std::uint64_t bytes);

  std::uint64_t allocated_bytes() const noexcept { return allocated_; }

  // --- Transfers ----------------------------------------------------------

  /// Charges a host->device (or device->host) PCIe copy to the
  /// simulated timeline and returns its simulated duration.
  double copy(std::uint64_t bytes);

  // --- Kernel launch ------------------------------------------------------

  /// Thread coordinates handed to the kernel functor.
  struct ThreadCtx {
    unsigned block = 0;
    unsigned thread = 0;
    /// Global linear thread id (block * block_threads + thread).
    std::size_t global_id() const noexcept { return gid; }
    std::size_t gid = 0;
  };

  /// Functionally executes `kernel` for every (block, thread) of the
  /// grid and charges the simulated cost of the launch. `ops` are the
  /// operation counts of the whole launch (the engines compute them
  /// analytically from the workload). Throws InfeasibleLaunch (a
  /// std::runtime_error) if the launch shape is infeasible on this
  /// device (e.g. shared memory per block over the limit) — the same
  /// configurations the paper could not run.
  KernelCost launch(const std::string& name, const LaunchConfig& cfg,
                    const KernelTraits& traits, const ara::OpCounts& ops,
                    const std::function<void(const ThreadCtx&)>& kernel);

  /// Cost-only variant: charges the simulated time without executing
  /// (used by benchmarks extrapolating to full paper scale).
  KernelCost launch_cost_only(const std::string& name, const LaunchConfig& cfg,
                              const KernelTraits& traits,
                              const ara::OpCounts& ops);

  // --- Simulated timeline -------------------------------------------------

  /// Total simulated seconds of all work issued to this device.
  double elapsed_seconds() const noexcept { return elapsed_; }

  /// Simulated seconds spent in transfers only.
  double transfer_seconds() const noexcept { return transfer_; }

  /// Per-phase simulated seconds accumulated over all launches.
  const perf::PhaseBreakdown& phase_seconds() const noexcept {
    return phases_;
  }

  const std::vector<LaunchRecord>& launches() const noexcept {
    return launches_;
  }

  /// Clears the timeline (not the memory ledger).
  void reset_timeline();

 private:
  GpuCostModel model_;
  std::uint64_t allocated_ = 0;
  double elapsed_ = 0.0;
  double transfer_ = 0.0;
  perf::PhaseBreakdown phases_;
  std::vector<LaunchRecord> launches_;
};

}  // namespace ara::simgpu
