// Kernel selection: SimdPolicy x (build + host capability) -> the
// SweepKernel the engines drive. Selection happens once per engine
// run, so the per-event path carries no dispatch overhead beyond one
// indirect call per trial.
#include <stdexcept>
#include <string>

#include "core/simd/kernel_entries.hpp"
#include "core/simd/kernels.hpp"

namespace ara::simd {

namespace {

template <typename Real>
SweepKernel<Real> scalar_kernel() {
  SweepKernel<Real> k;
  k.sweep = &detail::sweep_scalar;
  k.isa = IsaLevel::kScalar;
  k.lanes = 1;
  return k;
}

// The vector kernel for `isa`, which the caller has already verified
// is compiled + supported. Returns the scalar kernel for kScalar.
template <typename Real>
SweepKernel<Real> vector_kernel(IsaLevel isa) {
  SweepKernel<Real> k = scalar_kernel<Real>();
#if defined(ARA_SIMD_HAVE_AVX2)
  if (isa == IsaLevel::kAvx2) {
    k.sweep = &detail::sweep_avx2;
      k.isa = isa;
    k.lanes = isa_lanes(isa, sizeof(Real));
  }
#endif
#if defined(ARA_SIMD_HAVE_NEON)
  if (isa == IsaLevel::kNeon) {
    k.sweep = &detail::sweep_neon;
      k.isa = isa;
    k.lanes = isa_lanes(isa, sizeof(Real));
  }
#endif
  return k;
}

}  // namespace

template <typename Real>
SweepKernel<Real> select_kernel_capped(SimdPolicy policy, unsigned width,
                                       IsaLevel cap) {
  const IsaLevel host = detect_best_isa();
  // The usable capability is the intersection of what the build + host
  // offer and what the caller-supplied cap admits.
  const IsaLevel avail = (cap == host) ? host : IsaLevel::kScalar;

  switch (policy) {
    case SimdPolicy::kScalar:
      return scalar_kernel<Real>();
    case SimdPolicy::kAuto:
      return avail == IsaLevel::kScalar ? scalar_kernel<Real>()
                                        : vector_kernel<Real>(avail);
    case SimdPolicy::kForceWidth: {
      if (avail == IsaLevel::kScalar) {
        throw std::runtime_error(
            "simd: kForceWidth requested but no vector kernel is "
            "available (build " +
            std::string(simd_compiled() ? "has" : "lacks") +
            " SIMD TUs; host best ISA is " + isa_name(host) + ")");
      }
      SweepKernel<Real> k = vector_kernel<Real>(avail);
      if (width != 0 && width != k.lanes) {
        throw std::runtime_error(
            "simd: kForceWidth width " + std::to_string(width) +
            " unavailable for " +
            std::string(sizeof(Real) == 4 ? "f32" : "f64") + " (" +
            isa_name(k.isa) + " provides " + std::to_string(k.lanes) +
            " lanes)");
      }
      return k;
    }
  }
  return scalar_kernel<Real>();
}

template <typename Real>
SweepKernel<Real> select_kernel(SimdPolicy policy, unsigned width) {
  return select_kernel_capped<Real>(policy, width, detect_best_isa());
}

template SweepKernel<float> select_kernel_capped(SimdPolicy, unsigned,
                                                 IsaLevel);
template SweepKernel<double> select_kernel_capped(SimdPolicy, unsigned,
                                                  IsaLevel);
template SweepKernel<float> select_kernel(SimdPolicy, unsigned);
template SweepKernel<double> select_kernel(SimdPolicy, unsigned);

}  // namespace ara::simd
