// The sweep over the portfolio binding and its selection.
//
// A SweepKernel is one function pointer selected once per run (never
// per event): `sweep` evaluates one whole trial — reset, every
// occurrence, software prefetch of the event-major row kPrefetchWindow
// occurrences ahead — over every layer of the binding. The CPU engines
// and every fused simulated GPU engine's functional pass drive it; the
// layer-major readers (reinstatements, secondary uncertainty,
// GpuCombinedTableEngine) read the same table column by column.
//
// Determinism contract (DESIGN.md §8): there is one kernel, the scalar
// operand sequence of core/simd/steps.hpp over the layer-event table,
// and its results are bit-identical to ReferenceEngine's four-pass
// loop under every SimdPolicy. kAuto selects it too; kForceWidth,
// which asks for a vector kernel, fails.
#pragma once

#include <cstdint>
#include <span>

#include "core/simd/bound_portfolio.hpp"
#include "core/simd/policy.hpp"
#include "core/types.hpp"

namespace ara::simd {

/// The instruction set a kernel runs on; the scalar kernel is the only
/// one.
enum class IsaLevel : std::uint8_t { kScalar = 0 };

/// "scalar" — recorded in SimulationResult::simd_isa and the bench
/// JSON.
constexpr const char* isa_name(IsaLevel) noexcept { return "scalar"; }

template <typename Real>
struct SweepKernel {
  using SweepFn = void (*)(const BoundPortfolio<Real>&,
                           std::span<const EventOccurrence>,
                           PortfolioTrialState<Real>&);

  SweepFn sweep = nullptr;
  IsaLevel isa = IsaLevel::kScalar;
};

/// The kernel `policy` asks for: the scalar sweep for kScalar and
/// kAuto. Throws std::runtime_error for kForceWidth, since no vector
/// kernel is available (`width` is named in the message).
template <typename Real>
SweepKernel<Real> select_kernel(SimdPolicy policy, unsigned width = 0);

}  // namespace ara::simd
