// AVX2 kernels (x86-64): 4 x f64 / 8 x f32 lanes.
//
// Compiled with per-file flags (-mavx2 -ffp-contract=off — see
// CMakeLists.txt): AVX2 gives the 256-bit ALUs, and disabling FP
// contraction keeps the lane math exactly the documented mul/sub/
// clamp/add sequence (an FMA-contracted variant would produce yet a
// third result set and break the fixed-lane-order reproducibility
// contract). Everything except the dispatch entry points lives in an
// anonymous namespace so no symbol compiled with vector flags can be
// picked over a default-flag duplicate at link time.
//
// This TU supplies the two pieces sweep_trial (kernel_entries.hpp)
// takes from an ISA; sweep_trial owns reset, prefetch and the one-layer
// running state (aggregate_step in locals). Per occurrence
// (kernels.hpp's SIMD contract):
//   combine — a layer's ELT slots are combined with aligned vector
//     loads of the folded SoA term arrays (share multiplied through at
//     bind time — one fewer load and multiply per slot) and scalar
//     loads of the table values (the same row offset on different
//     column base pointers; a gather buys nothing there and is opaque
//     to the sanitizers). The layer's slot run is padded to kEltPad
//     with zero-term slots, so the loop has no scalar remainder; the
//     4/8 partial sums are reduced low-lane-first — the fixed order
//     that makes runs reproducible.
//   apply_layers — every layer's combine into st.combined, then the
//     across-layer occurrence/aggregate update as an elementwise
//     aligned vector loop over the padded layer arrays. Elementwise ops
//     match scalar bit for bit, so all cross-scalar divergence is
//     confined to the reassociated ELT sums.
#if defined(ARA_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>

#include "core/simd/kernel_entries.hpp"

namespace ara::simd {
namespace {

// ---- f64: 4 lanes ----------------------------------------------------------

// `jb`/`je` delimit a layer's padded slot run (both multiples of
// kEltPad), so every iteration is a full vector and the term loads are
// aligned. `row` is the event's row offset into every slot's column.
inline double combine_elts_f64(const BoundPortfolio<double>& bp,
                               std::size_t row, std::uint32_t jb,
                               std::uint32_t je) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  for (std::uint32_t j = jb; j < je; j += 4) {
    const __m256d loss =
        _mm256_set_pd(bp.table_base[j + 3][row], bp.table_base[j + 2][row],
                      bp.table_base[j + 1][row], bp.table_base[j][row]);
    __m256d x =
        _mm256_sub_pd(_mm256_mul_pd(loss, _mm256_load_pd(&bp.fx_share[j])),
                      _mm256_load_pd(&bp.retention_share[j]));
    x = _mm256_max_pd(x, zero);
    x = _mm256_min_pd(x, _mm256_load_pd(&bp.limit_share[j]));
    acc = _mm256_add_pd(acc, x);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
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
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t a = 0; a < bp.padded_layers; a += 4) {
    __m256d y = _mm256_sub_pd(_mm256_load_pd(&st.combined[a]),
                              _mm256_load_pd(&bp.occ_retention[a]));
    y = _mm256_max_pd(y, zero);
    y = _mm256_min_pd(y, _mm256_load_pd(&bp.occ_limit[a]));
    _mm256_store_pd(&st.max_occurrence[a],
                    _mm256_max_pd(_mm256_load_pd(&st.max_occurrence[a]), y));
    const __m256d cum = _mm256_add_pd(_mm256_load_pd(&st.cumulative[a]), y);
    _mm256_store_pd(&st.cumulative[a], cum);
    __m256d capped =
        _mm256_sub_pd(cum, _mm256_load_pd(&bp.agg_retention[a]));
    capped = _mm256_max_pd(capped, zero);
    capped = _mm256_min_pd(capped, _mm256_load_pd(&bp.agg_limit[a]));
    const __m256d prev = _mm256_load_pd(&st.prev_capped[a]);
    _mm256_store_pd(&st.annual[a],
                    _mm256_add_pd(_mm256_load_pd(&st.annual[a]),
                                  _mm256_sub_pd(capped, prev)));
    _mm256_store_pd(&st.prev_capped[a], capped);
  }
}

// ---- f32: 8 lanes ----------------------------------------------------------

inline float combine_elts_f32(const BoundPortfolio<float>& bp,
                              std::size_t row, std::uint32_t jb,
                              std::uint32_t je) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 acc = zero;
  for (std::uint32_t j = jb; j < je; j += 8) {
    const __m256 loss = _mm256_set_ps(
        bp.table_base[j + 7][row], bp.table_base[j + 6][row],
        bp.table_base[j + 5][row], bp.table_base[j + 4][row],
        bp.table_base[j + 3][row], bp.table_base[j + 2][row],
        bp.table_base[j + 1][row], bp.table_base[j][row]);
    __m256 x =
        _mm256_sub_ps(_mm256_mul_ps(loss, _mm256_load_ps(&bp.fx_share[j])),
                      _mm256_load_ps(&bp.retention_share[j]));
    x = _mm256_max_ps(x, zero);
    x = _mm256_min_ps(x, _mm256_load_ps(&bp.limit_share[j]));
    acc = _mm256_add_ps(acc, x);
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  return ((((((lane[0] + lane[1]) + lane[2]) + lane[3]) + lane[4]) +
           lane[5]) +
          lane[6]) +
         lane[7];
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
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t a = 0; a < bp.padded_layers; a += 8) {
    __m256 y = _mm256_sub_ps(_mm256_load_ps(&st.combined[a]),
                             _mm256_load_ps(&bp.occ_retention[a]));
    y = _mm256_max_ps(y, zero);
    y = _mm256_min_ps(y, _mm256_load_ps(&bp.occ_limit[a]));
    _mm256_store_ps(&st.max_occurrence[a],
                    _mm256_max_ps(_mm256_load_ps(&st.max_occurrence[a]), y));
    const __m256 cum = _mm256_add_ps(_mm256_load_ps(&st.cumulative[a]), y);
    _mm256_store_ps(&st.cumulative[a], cum);
    __m256 capped = _mm256_sub_ps(cum, _mm256_load_ps(&bp.agg_retention[a]));
    capped = _mm256_max_ps(capped, zero);
    capped = _mm256_min_ps(capped, _mm256_load_ps(&bp.agg_limit[a]));
    const __m256 prev = _mm256_load_ps(&st.prev_capped[a]);
    _mm256_store_ps(&st.annual[a],
                    _mm256_add_ps(_mm256_load_ps(&st.annual[a]),
                                  _mm256_sub_ps(capped, prev)));
    _mm256_store_ps(&st.prev_capped[a], capped);
  }
}

}  // namespace

namespace detail {

void sweep_avx2(const BoundPortfolio<double>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<double>& st) {
  sweep_trial(bp, trial, st, combine_layer_f64, apply_layers_f64);
}
void sweep_avx2(const BoundPortfolio<float>& bp,
                std::span<const EventOccurrence> trial,
                PortfolioTrialState<float>& st) {
  sweep_trial(bp, trial, st, combine_layer_f32, apply_layers_f32);
}

}  // namespace detail
}  // namespace ara::simd

#endif  // ARA_SIMD_HAVE_AVX2
