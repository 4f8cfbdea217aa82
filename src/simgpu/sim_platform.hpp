// SimPlatform: a host with several simulated GPUs, mirroring the
// paper's multiple-GPU machine (4x Tesla M2090 driven by one CPU
// thread per GPU). The platform dispatches per-device work through a
// host thread pool — functionally concurrent, exactly as the paper's
// CPU threads invoke and manage one GPU each — and the platform-level
// simulated time is the maximum over the devices' serialised
// timelines (devices run in parallel with each other). A one-device
// platform has no pool: the calling thread drives its GPU.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "simgpu/sim_device.hpp"

namespace ara::simgpu {

class SimPlatform {
 public:
  /// A platform of `count` identical devices.
  SimPlatform(const DeviceSpec& spec, std::size_t count);

  /// A heterogeneous platform.
  explicit SimPlatform(std::vector<DeviceSpec> specs);

  std::size_t device_count() const noexcept { return devices_.size(); }

  SimDevice& device(std::size_t i) { return *devices_[i]; }
  const SimDevice& device(std::size_t i) const { return *devices_[i]; }

  /// Runs `work(device_index)` for every device on the host thread
  /// pool (one CPU thread drives one GPU, as in the paper) and blocks
  /// until all complete; a lone device runs on the calling thread.
  /// The first failure is rethrown as thrown.
  void for_each_device(const std::function<void(std::size_t)>& work);

  /// Platform simulated time: max over device timelines (devices
  /// execute concurrently).
  double elapsed_seconds() const;

  /// Sum of per-phase simulated seconds across devices divided by the
  /// device count — the per-device average used for reporting phase
  /// fractions.
  perf::PhaseBreakdown mean_phase_seconds() const;

  /// Parallel efficiency vs a single device doing all the work:
  /// single_device_seconds / (device_count * elapsed_seconds()).
  double efficiency(double single_device_seconds) const;

  void reset_timelines();

 private:
  std::vector<std::unique_ptr<SimDevice>> devices_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< null for one device
};

}  // namespace ara::simgpu
