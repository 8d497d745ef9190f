// Raw SIMD/scalar kernels behind the runtime dispatcher (dispatch.h). They
// cover the serving hot path and every kernel of one training step:
//
//   gemm      C (m x n) += A (m x k) * B (k x n), C pre-zeroed by the caller;
//             the forward pass, and both backward GEMMs over a transposed
//             operand (nn::matmul_at_b / nn::matmul_a_bt)
//   bias_act  fused epilogue y = act(y + bias) over a row-major batch
//   argmax    first index of the row maximum (top-1 classification)
//   adam      one Adam update of a parameter tensor and its moments
//
// The bitwise-identity contract (every variant produces byte-identical
// output to the scalar reference, verified exhaustively by
// tests/test_simd_kernels.cpp):
//
//   * gemm visits k in ascending order per output element and skips
//     a-values that are exactly 0.0f (ReLU activations are ~50% zeros), so
//     each C element accumulates the same products in the same order as the
//     scalar kernel. SIMD variants vectorize across j (independent output
//     elements) only, and use separate mul + add — never FMA, whose single
//     rounding would diverge. The build pins -ffp-contract=off so compilers
//     cannot re-fuse the scalar tails either. The zero-skip also makes gemm
//     equal to a plain ascending-k dot product started at +0 whenever B is
//     finite (adding a ±0 product never changes a sum that started at +0);
//     with an Inf or NaN in B a skipped product would have been NaN, so the
//     backward GEMMs match the textbook loops for finite inputs only.
//   * bias_act applies act(v) = (v > 0.0f ? v : 0.0f) when relu is set —
//     the same predicate as nn::ReLU — which maps exactly onto
//     and(v, cmp_gt(v, 0)): NaN and -0.0f both land on +0.0f in scalar and
//     vector alike.
//   * argmax returns the first index attaining the maximum (ties break
//     toward the lower class label, matching serve::top_k_classes). Inputs
//     must be NaN-free (softmax probabilities are).
//   * adam keeps every rounding step of the scalar loop: the moments are
//     computed in double and narrowed to float, the square root is a float
//     square root of the narrowed second moment, the step is divided in
//     double and narrowed, and the weight is updated by a float subtract.
//
// Per-variant tables live in kernels_{scalar,sse2,avx2}.cpp; the AVX2 TU is
// compiled with -mavx2 -mfma (per-file CMake flags) so the rest of the
// binary still runs on baseline x86-64, and the SSE2/AVX2 TUs compile to
// empty stubs on non-x86 targets.
#pragma once

#include <cstddef>

namespace safeloc::nn::simd {

/// Per-step Adam scalars, computed once per step in double by nn::Adam.
struct AdamStep {
  double beta1, beta2;
  double one_minus_beta1, one_minus_beta2;
  double alpha;  // lr * sqrt(1 - beta2^t) / (1 - beta1^t)
  double eps;
};

/// Function-pointer table for one kernel variant.
struct KernelTable {
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);
  void (*bias_act)(float* y, const float* bias, std::size_t rows,
                   std::size_t cols, bool relu);
  std::size_t (*argmax)(const float* x, std::size_t n);
  /// w -= alpha * m / (sqrt(v) + eps) after updating m and v from g, over n
  /// elements.
  void (*adam)(float* w, float* m, float* v, const float* g, std::size_t n,
               const AdamStep& s);
};

/// B-footprint threshold above which every variant's gemm switches from the
/// streaming ikj loop to the L1-tiled loop (same ascending-k accumulation
/// order either way). nn::kBlockedGemmBytes aliases this.
inline constexpr std::size_t kGemmTileBytes = 8u << 20;

// ---- Scalar reference kernels -------------------------------------------
// Exposed raw so nn::matmul_into stays a thin wrapper over the exact loop
// the SIMD variants are tested against.

/// Streaming ikj zero-skip GEMM (the historical nn::matmul_into loop).
void gemm_naive_scalar(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n);

/// L1-tiled GEMM: (kc x nc) panels of B visited in ascending-k order — the
/// scalar variant's gemm above kGemmTileBytes.
void gemm_tiled_scalar(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n);

void bias_act_scalar(float* y, const float* bias, std::size_t rows,
                     std::size_t cols, bool relu);

std::size_t argmax_scalar(const float* x, std::size_t n);

/// The reference Adam loop every variant reproduces bit for bit.
void adam_scalar(float* w, float* m, float* v, const float* g, std::size_t n,
                 const AdamStep& s);

// ---- Shared GEMM drivers -------------------------------------------------
// One source of truth for the loop structure every variant shares, so the
// footprint threshold and tile sizes cannot drift apart between TUs (drift
// would break cross-variant bitwise identity). A RowBlock callable
// accumulates C columns [j0, j1) for one row of A over p in [p0, p1):
//
//   row_block(const float* arow, const float* b, float* crow,
//             size_t p0, size_t p1, size_t j0, size_t j1, size_t n)
//
// Each TU instantiates these with its ISA-specific row block, so codegen
// happens under that TU's -m flags.

namespace detail {

/// Streaming traversal: every row of A against all of B.
template <typename RowBlock>
void gemm_rows(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, RowBlock row_block) {
  for (std::size_t i = 0; i < m; ++i) {
    row_block(a + i * k, b, c + i * n, std::size_t{0}, k, std::size_t{0}, n,
              n);
  }
}

/// L1-tiled traversal: (kc x nc) float tiles of B — 16 KB, resident in L1d
/// while every row of A streams over them — visited in ascending-k order so
/// every output element accumulates in exactly gemm_rows' order.
template <typename RowBlock>
void gemm_tiles(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, RowBlock row_block) {
  constexpr std::size_t kc = 64, nc = 64;
  for (std::size_t j0 = 0; j0 < n; j0 += nc) {
    const std::size_t j1 = j0 + nc < n ? j0 + nc : n;
    for (std::size_t p0 = 0; p0 < k; p0 += kc) {
      const std::size_t p1 = p0 + kc < k ? p0 + kc : k;
      for (std::size_t i = 0; i < m; ++i) {
        row_block(a + i * k, b, c + i * n, p0, p1, j0, j1, n);
      }
    }
  }
}

/// The dispatch-table entry shape: tiled above the footprint threshold
/// (B would stream from memory every call), streaming below it.
template <typename RowBlock>
void gemm_auto(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, RowBlock row_block) {
  if (k * n * sizeof(float) > kGemmTileBytes) {
    gemm_tiles(a, b, c, m, k, n, row_block);
  } else {
    gemm_rows(a, b, c, m, k, n, row_block);
  }
}

}  // namespace detail

// ---- Per-variant tables --------------------------------------------------
// Each returns nullptr when the variant is compiled out of this build
// (non-x86 target); CPU support is probed separately by the dispatcher.

const KernelTable* scalar_table() noexcept;
const KernelTable* sse2_table() noexcept;
const KernelTable* avx2_table() noexcept;

}  // namespace safeloc::nn::simd
