// The SIMD execution knob threaded from ExecutionPolicy down to the
// kernel selection (DESIGN.md §8: one kernel, one determinism
// contract). Kept separate from kernels.hpp so engine.hpp and the CLI
// tools can carry the enum without pulling the kernel machinery.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace ara::simd {

/// How the fused hot path executes the per-event operand sequence.
enum class SimdPolicy : std::uint8_t {
  /// The widest kernel available: the scalar kernel, so bitwise
  /// kScalar.
  kAuto,
  /// The reference sequence: bit-identical to ReferenceEngine. The
  /// default.
  kScalar,
  /// Require a vector kernel (`simd_width`, when non-zero, names the
  /// lane count). Selection throws: no vector kernel exists.
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
