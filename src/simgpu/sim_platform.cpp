#include "simgpu/sim_platform.hpp"

#include <algorithm>
#include <stdexcept>

namespace ara::simgpu {

SimPlatform::SimPlatform(const DeviceSpec& spec, std::size_t count)
    : SimPlatform(std::vector<DeviceSpec>(count, spec)) {}

SimPlatform::SimPlatform(std::vector<DeviceSpec> specs) {
  if (specs.empty()) {
    throw std::invalid_argument("SimPlatform: at least one device required");
  }
  devices_.reserve(specs.size());
  for (auto& s : specs) {
    devices_.push_back(std::make_unique<SimDevice>(std::move(s)));
  }
  if (devices_.size() > 1) {
    pool_ = std::make_unique<parallel::ThreadPool>(devices_.size());
  }
}

void SimPlatform::for_each_device(
    const std::function<void(std::size_t)>& work) {
  if (!pool_) {
    work(0);
    return;
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    pool_->submit([&work, i] { work(i); });
  }
  pool_->wait_idle();
}

double SimPlatform::elapsed_seconds() const {
  double worst = 0.0;
  for (const auto& d : devices_) {
    worst = std::max(worst, d->elapsed_seconds());
  }
  return worst;
}

perf::PhaseBreakdown SimPlatform::mean_phase_seconds() const {
  perf::PhaseBreakdown sum;
  for (const auto& d : devices_) sum += d->phase_seconds();
  return sum.scaled(1.0 / static_cast<double>(devices_.size()));
}

double SimPlatform::efficiency(double single_device_seconds) const {
  const double t = elapsed_seconds();
  if (t <= 0.0) return 0.0;
  return single_device_seconds /
         (static_cast<double>(devices_.size()) * t);
}

void SimPlatform::reset_timelines() {
  for (auto& d : devices_) d->reset_timeline();
}

}  // namespace ara::simgpu
