// AVX2 kernels — 8-lane vectorization across output columns j. This TU is
// the only one compiled with -mavx2 -mfma (per-file CMake flags); the
// dispatcher only selects it after __builtin_cpu_supports("avx2"), so the
// binary still runs on baseline x86-64. FMA is deliberately unused: the
// bitwise-identity contract requires separate mul + add roundings (see
// kernels.h), and -ffp-contract=off keeps the compiler from fusing the
// scalar tails.
#include "src/nn/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace safeloc::nn::simd {
namespace {

/// Mask selecting the first `lanes` (1..7) of eight float lanes.
inline __m256i tail_mask(std::size_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One row of A against C columns [j0, j1), accumulating products for
/// p in [p0, p1). The row's nonzero a-values are first gathered in
/// ascending p (the zero-skip, decided once per row instead of once per
/// column strip, so no strip pays a data-dependent branch). Then a
/// 32-column strip of C lives in four ymm accumulators for the whole walk
/// over them — C is loaded once and stored once per strip instead of per p,
/// which is where this kernel beats the compiler-vectorized scalar loop.
/// Columns past the last full 8-lane strip run as one masked strip. Each
/// output element still sees the exact scalar chain
/// ((c + a_{p0} b_{p0}) + a_{p0+1} b_{p0+1}) + ... with separate mul/add
/// roundings and the same zero-skips, so bitwise identity holds.
inline void row_block(const float* arow, const float* b, float* crow,
                      std::size_t p0, std::size_t p1, std::size_t j0,
                      std::size_t j1, std::size_t n) {
  constexpr std::size_t kChunk = 256;
  float av[kChunk];
  const float* brows[kChunk];
  for (std::size_t q0 = p0; q0 < p1; q0 += kChunk) {
    const std::size_t q1 = q0 + kChunk < p1 ? q0 + kChunk : p1;
    std::size_t nnz = 0;
    for (std::size_t p = q0; p < q1; ++p) {
      av[nnz] = arow[p];
      brows[nnz] = b + p * n;
      nnz += arow[p] != 0.0f ? 1 : 0;
    }
    std::size_t j = j0;
    for (; j + 32 <= j1; j += 32) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      __m256 c1 = _mm256_loadu_ps(crow + j + 8);
      __m256 c2 = _mm256_loadu_ps(crow + j + 16);
      __m256 c3 = _mm256_loadu_ps(crow + j + 24);
      for (std::size_t q = 0; q < nnz; ++q) {
        const __m256 vav = _mm256_set1_ps(av[q]);
        const float* brow = brows[q] + j;
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 16)));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(crow + j, c0);
      _mm256_storeu_ps(crow + j + 8, c1);
      _mm256_storeu_ps(crow + j + 16, c2);
      _mm256_storeu_ps(crow + j + 24, c3);
    }
    for (; j + 8 <= j1; j += 8) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      for (std::size_t q = 0; q < nnz; ++q) {
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(av[q]),
                                             _mm256_loadu_ps(brows[q] + j)));
      }
      _mm256_storeu_ps(crow + j, c0);
    }
    if (j < j1) {
      // Masked-off lanes load as zero and are never stored.
      const __m256i mask = tail_mask(j1 - j);
      __m256 c0 = _mm256_maskload_ps(crow + j, mask);
      for (std::size_t q = 0; q < nnz; ++q) {
        c0 = _mm256_add_ps(
            c0, _mm256_mul_ps(_mm256_set1_ps(av[q]),
                              _mm256_maskload_ps(brows[q] + j, mask)));
      }
      _mm256_maskstore_ps(crow + j, mask, c0);
    }
  }
}

void gemm_avx2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  detail::gemm_auto(a, b, c, m, k, n, row_block);
}

void bias_act_avx2(float* y, const float* bias, std::size_t rows,
                   std::size_t cols, bool relu) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cols;
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      __m256 v =
          _mm256_add_ps(_mm256_loadu_ps(yrow + j), _mm256_loadu_ps(bias + j));
      if (relu) v = _mm256_and_ps(v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
      _mm256_storeu_ps(yrow + j, v);
    }
    for (; j < cols; ++j) {
      const float v = yrow[j] + bias[j];
      yrow[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

std::size_t argmax_avx2(const float* x, std::size_t n) {
  if (n < 16) return argmax_scalar(x, n);
  __m256 vmax = _mm256_loadu_ps(x);
  std::size_t j = 8;
  for (; j + 8 <= n; j += 8) vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + j));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float best = lanes[0];
  for (int l = 1; l < 8; ++l) best = lanes[l] > best ? lanes[l] : best;
  for (; j < n; ++j) best = x[j] > best ? x[j] : best;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] == best) return i;
  }
  return 0;  // unreachable for NaN-free input
}

/// Four elements per iteration, each through the scalar loop's exact
/// sequence of roundings (see kernels.h): double moments narrowed to float,
/// a float square root, a double divide narrowed to float, a float subtract.
void adam_avx2(float* w, float* m, float* v, const float* g, std::size_t n,
               const AdamStep& s) {
  const __m256d beta1 = _mm256_set1_pd(s.beta1);
  const __m256d beta2 = _mm256_set1_pd(s.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(s.one_minus_beta1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(s.one_minus_beta2);
  const __m256d alpha = _mm256_set1_pd(s.alpha);
  const __m256d eps = _mm256_set1_pd(s.eps);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g + j));
    const __m128 mf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + j))),
                      _mm256_mul_pd(one_minus_beta1, gd)));
    const __m128 vf = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + j))),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, gd), gd)));
    _mm_storeu_ps(m + j, mf);
    _mm_storeu_ps(v + j, vf);
    const __m256d denom =
        _mm256_add_pd(_mm256_cvtps_pd(_mm_sqrt_ps(vf)), eps);
    const __m128 step = _mm256_cvtpd_ps(
        _mm256_div_pd(_mm256_mul_pd(alpha, _mm256_cvtps_pd(mf)), denom));
    _mm_storeu_ps(w + j, _mm_sub_ps(_mm_loadu_ps(w + j), step));
  }
  adam_scalar(w + j, m + j, v + j, g + j, n - j, s);
}

constexpr KernelTable kAvx2Table{gemm_avx2, bias_act_avx2, argmax_avx2,
                                 adam_avx2};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace safeloc::nn::simd

#else  // !defined(__AVX2__)

namespace safeloc::nn::simd {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace safeloc::nn::simd

#endif
