// SSE2 kernels — 4-lane vectorization across output columns j. SSE2 is part
// of baseline x86-64 so this TU needs no special compile flags; it stubs out
// entirely on non-x86 targets. Bitwise identity with the scalar reference
// holds because each output element still accumulates ascending-k products
// with separate mul + add (see kernels.h).
#include "src/nn/simd/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace safeloc::nn::simd {
namespace {

/// One row of A against C columns [j0, j1), accumulating products for p in
/// [p0, p1). Register-blocked like the AVX2 kernel (see kernels_avx2.cpp):
/// a 16-column strip of C lives in four xmm accumulators across the
/// ascending-p loop, loaded and stored once per strip. Per element the
/// scalar accumulation chain (separate mul + add, same zero-skips) is
/// unchanged, so bitwise identity holds.
inline void row_block(const float* arow, const float* b, float* crow,
                      std::size_t p0, std::size_t p1, std::size_t j0,
                      std::size_t j1, std::size_t n) {
  std::size_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m128 c0 = _mm_loadu_ps(crow + j);
    __m128 c1 = _mm_loadu_ps(crow + j + 4);
    __m128 c2 = _mm_loadu_ps(crow + j + 8);
    __m128 c3 = _mm_loadu_ps(crow + j + 12);
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const __m128 vav = _mm_set1_ps(av);
      const float* brow = b + p * n + j;
      c0 = _mm_add_ps(c0, _mm_mul_ps(vav, _mm_loadu_ps(brow)));
      c1 = _mm_add_ps(c1, _mm_mul_ps(vav, _mm_loadu_ps(brow + 4)));
      c2 = _mm_add_ps(c2, _mm_mul_ps(vav, _mm_loadu_ps(brow + 8)));
      c3 = _mm_add_ps(c3, _mm_mul_ps(vav, _mm_loadu_ps(brow + 12)));
    }
    _mm_storeu_ps(crow + j, c0);
    _mm_storeu_ps(crow + j + 4, c1);
    _mm_storeu_ps(crow + j + 8, c2);
    _mm_storeu_ps(crow + j + 12, c3);
  }
  for (; j + 4 <= j1; j += 4) {
    __m128 c0 = _mm_loadu_ps(crow + j);
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      c0 = _mm_add_ps(c0,
                      _mm_mul_ps(_mm_set1_ps(av), _mm_loadu_ps(b + p * n + j)));
    }
    _mm_storeu_ps(crow + j, c0);
  }
  for (; j < j1; ++j) {
    float acc = crow[j];
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      acc += av * b[p * n + j];
    }
    crow[j] = acc;
  }
}

void gemm_sse2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  detail::gemm_auto(a, b, c, m, k, n, row_block);
}

void bias_act_sse2(float* y, const float* bias, std::size_t rows,
                   std::size_t cols, bool relu) {
  const __m128 zero = _mm_setzero_ps();
  for (std::size_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cols;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      __m128 v = _mm_add_ps(_mm_loadu_ps(yrow + j), _mm_loadu_ps(bias + j));
      if (relu) v = _mm_and_ps(v, _mm_cmpgt_ps(v, zero));
      _mm_storeu_ps(yrow + j, v);
    }
    for (; j < cols; ++j) {
      const float v = yrow[j] + bias[j];
      yrow[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

std::size_t argmax_sse2(const float* x, std::size_t n) {
  if (n < 8) return argmax_scalar(x, n);
  // Pass 1: the maximum value; pass 2: its first index. Equal to the scalar
  // first-max scan for NaN-free input (±0.0 compare equal in both).
  __m128 vmax = _mm_loadu_ps(x);
  std::size_t j = 4;
  for (; j + 4 <= n; j += 4) vmax = _mm_max_ps(vmax, _mm_loadu_ps(x + j));
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, vmax);
  float best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] > best ? lanes[l] : best;
  for (; j < n; ++j) best = x[j] > best ? x[j] : best;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] == best) return i;
  }
  return 0;  // unreachable for NaN-free input
}

// Adam needs packed double conversions of four floats at a time, which SSE2
// only offers two-wide; the scalar loop is the SSE2 entry.
constexpr KernelTable kSse2Table{gemm_sse2, bias_act_sse2, argmax_sse2,
                                 adam_scalar};

}  // namespace

const KernelTable* sse2_table() noexcept { return &kSse2Table; }

}  // namespace safeloc::nn::simd

#else  // !defined(__SSE2__)

namespace safeloc::nn::simd {
const KernelTable* sse2_table() noexcept { return nullptr; }
}  // namespace safeloc::nn::simd

#endif
