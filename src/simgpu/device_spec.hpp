// GPU device specifications for the simulator. The two presets are the
// paper's cards (NVIDIA Tesla C2075 and M2090, both Fermi GF110), with
// the published architectural limits plus the calibrated effective
// random-access parameters the cost model needs (derivations in
// gpu_cost_model.cpp and EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ara::simgpu {

struct DeviceSpec {
  std::string name;

  // Architecture limits (published).
  unsigned sm_count = 0;            ///< streaming multiprocessors
  unsigned cores_per_sm = 0;        ///< CUDA cores per SM
  double clock_ghz = 0.0;
  unsigned warp_size = 32;
  unsigned max_threads_per_block = 1024;
  unsigned max_threads_per_sm = 1536;   ///< Fermi: 48 warps
  unsigned max_blocks_per_sm = 8;       ///< Fermi limit
  std::size_t shared_mem_per_sm = 48 * 1024;
  std::size_t shared_mem_per_block_max = 48 * 1024;
  unsigned registers_per_sm = 32768;

  // Memory system (published).
  std::size_t global_mem_bytes = 0;
  double mem_bandwidth_gbps = 0.0;   ///< peak global bandwidth, GB/s
  double mem_latency_ns = 0.0;       ///< uncached global access latency

  // Compute throughput (published).
  double flops_sp = 0.0;  ///< peak single-precision FLOP/s
  double flops_dp = 0.0;  ///< peak double-precision FLOP/s

  // Host link.
  double pcie_bandwidth_gbps = 6.0;  ///< effective PCIe 2.0 x16

  // Calibrated model parameters (see gpu_cost_model.cpp).
  double random_access_efficiency_f64 = 0.0;  ///< fraction of peak BW
  double random_access_efficiency_f32 = 0.0;  ///< achieved by random reads
  double kernel_launch_overhead_s = 10e-6;

  /// Total resident threads when fully occupied.
  unsigned max_resident_threads() const {
    return sm_count * max_threads_per_sm;
  }

  friend bool operator==(const DeviceSpec&, const DeviceSpec&) = default;
};

/// NVIDIA Tesla C2075: 448 cores (14 SMs x 32), 1.15 GHz, 5.375 GB,
/// 144 GB/s, 515 GFLOPS DP / 1.03 TFLOPS SP.
DeviceSpec tesla_c2075();

/// NVIDIA Tesla M2090: 512 cores (16 SMs x 32), 1.30 GHz, 5.375 GB,
/// 177 GB/s, 665 GFLOPS DP / 1.33 TFLOPS SP. (The paper's text says
/// "14 streaming multi-processors" for both cards, but a 512-core
/// M2090 is 16 SMs x 32; we follow the hardware.)
DeviceSpec tesla_m2090();

}  // namespace ara::simgpu
