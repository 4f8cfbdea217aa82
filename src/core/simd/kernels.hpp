// Runtime-dispatched kernels over the SoA portfolio binding.
//
// A SweepKernel is one function pointer selected once per run (never
// per event): `sweep` evaluates one whole trial — reset, every
// occurrence, software prefetch of the event-major row kPrefetchWindow
// occurrences ahead — over every layer of the binding. The CPU engines
// and every fused simulated GPU engine's functional pass drive it; the
// layer-major readers (reinstatements, secondary uncertainty,
// GpuCombinedTableEngine) call the same steps (core/simd/steps.hpp) on
// the same binding, one layer at a time.
//
// Determinism contracts (DESIGN.md §8):
//   * SimdPolicy::kScalar — the one operand sequence of
//     core/simd/steps.hpp (elt_sum, aggregate_step); results are
//     bit-identical to ReferenceEngine's four-pass loop. This is the
//     default everywhere.
//   * vector kernels — lane order is fixed (a layer's ELT slots are
//     combined as 4/8 partial sums reduced low-lane-first), so results
//     are bit-reproducible run to run on the same build + host, but
//     the reassociated ELT sum may differ from scalar in the last ulp.
//     The across-layer occurrence/aggregate update is elementwise and
//     agrees with scalar exactly.
#pragma once

#include <span>

#include "core/simd/bound_portfolio.hpp"
#include "core/simd/capability.hpp"
#include "core/simd/policy.hpp"
#include "core/types.hpp"

namespace ara::simd {

template <typename Real>
struct SweepKernel {
  using SweepFn = void (*)(const BoundPortfolio<Real>&,
                           std::span<const EventOccurrence>,
                           PortfolioTrialState<Real>&);

  SweepFn sweep = nullptr;
  IsaLevel isa = IsaLevel::kScalar;
  unsigned lanes = 1;  ///< f64 lanes for double, f32 lanes for float
};

/// Selects the kernel `policy` asks for on this build + host. Throws
/// std::runtime_error when kForceWidth cannot be satisfied (no vector
/// kernel compiled/supported, or `width` doesn't match the available
/// lane count).
template <typename Real>
SweepKernel<Real> select_kernel(SimdPolicy policy, unsigned width = 0);

/// Test seam: same selection with the host capability clamped to
/// `cap`, so fallback behaviour is exercisable on any machine (e.g.
/// cap = kScalar simulates a host without vector units).
template <typename Real>
SweepKernel<Real> select_kernel_capped(SimdPolicy policy, unsigned width,
                                       IsaLevel cap);

}  // namespace ara::simd
