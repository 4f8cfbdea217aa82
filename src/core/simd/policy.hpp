// The SIMD execution knob threaded from ExecutionPolicy down to the
// kernel dispatch (see DESIGN.md §8 for the two determinism
// contracts). Kept separate from kernels.hpp so engine.hpp and the
// CLI tools can carry the enum without pulling the kernel machinery.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace ara::simd {

/// How the fused hot path executes the per-event operand sequence.
enum class SimdPolicy : std::uint8_t {
  /// Widest kernel the build and the host support; scalar when none.
  /// Deterministic run-to-run (fixed lane order), but ELT sums are
  /// reassociated, so results may differ from kScalar in the last ulp.
  kAuto,
  /// The reference sequence: bit-identical to ReferenceEngine.
  /// This is the default — vectorization is always opt-in.
  kScalar,
  /// Require a vector kernel; `simd_width` (when non-zero) pins the
  /// lane count. Selection throws if the build or host cannot satisfy
  /// it — for pinning benchmark/CI runs to a known ISA.
  kForceWidth,
};

constexpr std::string_view simd_policy_name(SimdPolicy p) noexcept {
  switch (p) {
    case SimdPolicy::kAuto:
      return "auto";
    case SimdPolicy::kScalar:
      return "scalar";
    case SimdPolicy::kForceWidth:
      return "force";
  }
  return "scalar";
}

constexpr std::optional<SimdPolicy> simd_policy_from_name(
    std::string_view name) noexcept {
  if (name == "auto") return SimdPolicy::kAuto;
  if (name == "scalar") return SimdPolicy::kScalar;
  if (name == "force") return SimdPolicy::kForceWidth;
  return std::nullopt;
}

}  // namespace ara::simd
