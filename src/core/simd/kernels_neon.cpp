// NEON kernels (aarch64): 2 x f64 / 4 x f32 lanes.
//
// Mirror of kernels_avx2.cpp at 128-bit width — see that file and
// kernels.hpp for the combine / apply_layers split that sweep_trial
// (kernel_entries.hpp) drives and the SIMD determinism contract (fixed
// low-lane-first reduction order; -ffp-contract=off per-file keeps the
// lane math un-fused). NEON is architecturally baseline on aarch64, so
// there is no runtime probe beyond the build gate; everything except
// the dispatch entry points is in an anonymous namespace.
#if defined(ARA_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include <cstddef>

#include "core/simd/kernel_entries.hpp"

namespace ara::simd {
namespace {

// ---- f64: 2 lanes ----------------------------------------------------------

// `jb`/`je` delimit a layer's padded slot run (multiples of kEltPad):
// every iteration is a full vector over the folded term arrays. `row`
// is the event's row offset into every slot's column.
inline double combine_elts_f64(const BoundPortfolio<double>& bp,
                               std::size_t row, std::uint32_t jb,
                               std::uint32_t je) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  float64x2_t acc = zero;
  for (std::uint32_t j = jb; j < je; j += 2) {
    double lane0 = bp.table_base[j][row];
    double lane1 = bp.table_base[j + 1][row];
    float64x2_t loss = vsetq_lane_f64(lane1, vdupq_n_f64(lane0), 1);
    float64x2_t x =
        vsubq_f64(vmulq_f64(loss, vld1q_f64(&bp.fx_share[j])),
                  vld1q_f64(&bp.retention_share[j]));
    x = vmaxq_f64(x, zero);
    x = vminq_f64(x, vld1q_f64(&bp.limit_share[j]));
    acc = vaddq_f64(acc, x);
  }
  return vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
}

auto combine_layer_f64(const BoundPortfolio<double>& bp, std::size_t a) {
  return [&bp, jb = bp.elt_begin[a],
          je = bp.elt_begin[a + 1]](std::size_t row) {
    return combine_elts_f64(bp, row, jb, je);
  };
}

void apply_layers_f64(const BoundPortfolio<double>& bp, std::size_t row,
                      PortfolioTrialState<double>& st) {
  for (std::size_t a = 0; a < bp.layers; ++a) {
    st.combined[a] =
        combine_elts_f64(bp, row, bp.elt_begin[a], bp.elt_begin[a + 1]);
  }
  const float64x2_t zero = vdupq_n_f64(0.0);
  for (std::size_t a = 0; a < bp.padded_layers; a += 2) {
    float64x2_t y = vsubq_f64(vld1q_f64(&st.combined[a]),
                              vld1q_f64(&bp.occ_retention[a]));
    y = vmaxq_f64(y, zero);
    y = vminq_f64(y, vld1q_f64(&bp.occ_limit[a]));
    vst1q_f64(&st.max_occurrence[a],
              vmaxq_f64(vld1q_f64(&st.max_occurrence[a]), y));
    const float64x2_t cum = vaddq_f64(vld1q_f64(&st.cumulative[a]), y);
    vst1q_f64(&st.cumulative[a], cum);
    float64x2_t capped = vsubq_f64(cum, vld1q_f64(&bp.agg_retention[a]));
    capped = vmaxq_f64(capped, zero);
    capped = vminq_f64(capped, vld1q_f64(&bp.agg_limit[a]));
    const float64x2_t prev = vld1q_f64(&st.prev_capped[a]);
    vst1q_f64(&st.annual[a],
              vaddq_f64(vld1q_f64(&st.annual[a]), vsubq_f64(capped, prev)));
    vst1q_f64(&st.prev_capped[a], capped);
  }
}

// ---- f32: 4 lanes ----------------------------------------------------------

inline float combine_elts_f32(const BoundPortfolio<float>& bp,
                              std::size_t row, std::uint32_t jb,
                              std::uint32_t je) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  float32x4_t acc = zero;
  for (std::uint32_t j = jb; j < je; j += 4) {
    float32x4_t loss = vdupq_n_f32(bp.table_base[j][row]);
    loss = vsetq_lane_f32(bp.table_base[j + 1][row], loss, 1);
    loss = vsetq_lane_f32(bp.table_base[j + 2][row], loss, 2);
    loss = vsetq_lane_f32(bp.table_base[j + 3][row], loss, 3);
    float32x4_t x = vsubq_f32(vmulq_f32(loss, vld1q_f32(&bp.fx_share[j])),
                              vld1q_f32(&bp.retention_share[j]));
    x = vmaxq_f32(x, zero);
    x = vminq_f32(x, vld1q_f32(&bp.limit_share[j]));
    acc = vaddq_f32(acc, x);
  }
  return ((vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 1)) +
          vgetq_lane_f32(acc, 2)) +
         vgetq_lane_f32(acc, 3);
}

auto combine_layer_f32(const BoundPortfolio<float>& bp, std::size_t a) {
  return [&bp, jb = bp.elt_begin[a],
          je = bp.elt_begin[a + 1]](std::size_t row) {
    return combine_elts_f32(bp, row, jb, je);
  };
}

void apply_layers_f32(const BoundPortfolio<float>& bp, std::size_t row,
                      PortfolioTrialState<float>& st) {
  for (std::size_t a = 0; a < bp.layers; ++a) {
    st.combined[a] =
        combine_elts_f32(bp, row, bp.elt_begin[a], bp.elt_begin[a + 1]);
  }
  const float32x4_t zero = vdupq_n_f32(0.0f);
  for (std::size_t a = 0; a < bp.padded_layers; a += 4) {
    float32x4_t y = vsubq_f32(vld1q_f32(&st.combined[a]),
                              vld1q_f32(&bp.occ_retention[a]));
    y = vmaxq_f32(y, zero);
    y = vminq_f32(y, vld1q_f32(&bp.occ_limit[a]));
    vst1q_f32(&st.max_occurrence[a],
              vmaxq_f32(vld1q_f32(&st.max_occurrence[a]), y));
    const float32x4_t cum = vaddq_f32(vld1q_f32(&st.cumulative[a]), y);
    vst1q_f32(&st.cumulative[a], cum);
    float32x4_t capped = vsubq_f32(cum, vld1q_f32(&bp.agg_retention[a]));
    capped = vmaxq_f32(capped, zero);
    capped = vminq_f32(capped, vld1q_f32(&bp.agg_limit[a]));
    const float32x4_t prev = vld1q_f32(&st.prev_capped[a]);
    vst1q_f32(&st.annual[a],
              vaddq_f32(vld1q_f32(&st.annual[a]), vsubq_f32(capped, prev)));
    vst1q_f32(&st.prev_capped[a], capped);
  }
}

}  // namespace

namespace detail {

void sweep_neon(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st) {
  sweep_trial(bp, trial, st, combine_layer_f64, apply_layers_f64);
}
void sweep_neon(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st) {
  sweep_trial(bp, trial, st, combine_layer_f32, apply_layers_f32);
}

}  // namespace detail
}  // namespace ara::simd

#endif  // ARA_SIMD_HAVE_NEON
