// Scalar reference kernels — the bitwise ground truth every SIMD variant is
// tested against. The gemm loops are the historical nn::matmul_into
// streaming and tiled bodies, moved here so there is exactly one source of
// truth for the accumulation order.
#include "src/nn/simd/kernels.h"

#include <cmath>

namespace safeloc::nn::simd {
namespace {

/// The reference row block: ascending-p zero-skip, ascending-j inner loop.
/// Every SIMD variant must reproduce this accumulation chain per element.
void row_block_scalar(const float* arow, const float* b, float* crow,
                      std::size_t p0, std::size_t p1, std::size_t j0,
                      std::size_t j1, std::size_t n) {
  for (std::size_t p = p0; p < p1; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;
    const float* brow = b + p * n;
    for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
  }
}

}  // namespace

void gemm_naive_scalar(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) {
  detail::gemm_rows(a, b, c, m, k, n, row_block_scalar);
}

void gemm_tiled_scalar(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n) {
  detail::gemm_tiles(a, b, c, m, k, n, row_block_scalar);
}

void bias_act_scalar(float* y, const float* bias, std::size_t rows,
                     std::size_t cols, bool relu) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cols;
    if (relu) {
      for (std::size_t j = 0; j < cols; ++j) {
        const float v = yrow[j] + bias[j];
        yrow[j] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (std::size_t j = 0; j < cols; ++j) yrow[j] += bias[j];
    }
  }
}

std::size_t argmax_scalar(const float* x, std::size_t n) {
  if (n == 0) return 0;
  std::size_t best = 0;
  float best_value = x[0];
  for (std::size_t j = 1; j < n; ++j) {
    if (x[j] > best_value) {
      best_value = x[j];
      best = j;
    }
  }
  return best;
}

void adam_scalar(float* w, float* m, float* v, const float* g, std::size_t n,
                 const AdamStep& s) {
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = static_cast<float>(s.beta1 * m[j] + s.one_minus_beta1 * g[j]);
    v[j] = static_cast<float>(s.beta2 * v[j] + s.one_minus_beta2 *
                                                   static_cast<double>(g[j]) *
                                                   g[j]);
    w[j] -= static_cast<float>(s.alpha * m[j] / (std::sqrt(v[j]) + s.eps));
  }
}

namespace {

void gemm_scalar(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  detail::gemm_auto(a, b, c, m, k, n, row_block_scalar);
}

constexpr KernelTable kScalarTable{gemm_scalar, bias_act_scalar,
                                   argmax_scalar, adam_scalar};

}  // namespace

const KernelTable* scalar_table() noexcept { return &kScalarTable; }

}  // namespace safeloc::nn::simd
