// Dense row-major float32 matrix — the single tensor type used throughout
// the library. Fingerprint batches are (samples x features), layer weights
// are (fan_in x fan_out), biases are (1 x fan_out).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/nn/simd/dispatch.h"

namespace safeloc::nn {

class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates from explicit data (row-major); throws if sizes disagree.
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// Resizes to rows x cols, discarding contents (zero-filled).
  void reshape_discard(std::size_t rows, std::size_t cols);

  /// Extracts a copy of rows [begin, end).
  [[nodiscard]] Matrix slice_rows(std::size_t begin, std::size_t end) const;

  [[nodiscard]] std::string shape_string() const;

  friend bool operator==(const Matrix& a, const Matrix& b) noexcept {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- BLAS-like free functions -------------------------------------------
// All check shapes and throw std::invalid_argument on mismatch.

/// C = A * B.  A: (m,k)  B: (k,n)  C: (m,n)
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-owned output, resizing it as needed. Reuses the
/// output's storage when the shape already matches, so a serving hot loop
/// can run batched forward passes without per-tick allocation. Bit-identical
/// to matmul() (same kernel). `out` must not alias `a` or `b`.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// The inference hot-loop entry point: runs the CPUID-selected SIMD kernel
/// variant (simd::active_variant(); SAFELOC_KERNEL=scalar|sse2|avx2|auto
/// overrides). Every variant accumulates in the scalar kernel's order and is
/// exhaustively bitwise-tested against it, so dispatch never changes
/// results. Each variant additionally switches to an L1-tiled loop when B's
/// footprint exceeds kBlockedGemmBytes (B would stream from memory every
/// call): (kc x nc) panels of B, reused across all rows of A, visited in
/// ascending-k order, so the tiled loop stays bit-identical to
/// matmul_into. Below that footprint B is cache-resident and the streaming
/// loop's zero-skip (ReLU activations are ~50% zeros) wins instead.
inline constexpr std::size_t kBlockedGemmBytes = simd::kGemmTileBytes;
void matmul_into_auto(const Matrix& a, const Matrix& b, Matrix& out);

/// matmul_into_auto pinned to one dispatch variant (bench sweeps, bitwise
/// tests). Throws std::runtime_error when the variant is unsupported on
/// this CPU/build.
void matmul_into_variant(const Matrix& a, const Matrix& b, Matrix& out,
                         simd::Variant variant);

/// Fused, dispatched epilogue: y = act(y + bias) in one pass over y, where
/// act is ReLU (v > 0 ? v : 0, nn::ReLU's predicate) when `relu` is set and
/// identity otherwise. Bit-identical to add_row_broadcast followed by
/// nn::ReLU::forward; the serving hot path uses it to touch each output
/// element once instead of three times.
void bias_act_rows(Matrix& y, const Matrix& bias_row, bool relu);

/// C = A^T * B.  A: (k,m)  B: (k,n)  C: (m,n). Runs matmul_into_auto over
/// transpose(A), so every element sums a(p,i) * b(p,j) in ascending p from
/// +0, skipping a(p,i) == 0.
[[nodiscard]] Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T.  A: (m,k)  B: (n,k)  C: (m,n). Runs matmul_into_auto over
/// transpose(B): every element is the ascending-p dot product started at
/// +0, bit-identical to the textbook loop whenever B is finite (see
/// simd/kernels.h on the zero-skip).
[[nodiscard]] Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

[[nodiscard]] Matrix transpose(const Matrix& a);

/// out = A^T, reusing out's storage when the shape already matches. `out`
/// must not alias `a`.
void transpose_into(const Matrix& a, Matrix& out);

/// out += alpha * x (same shape).
void axpy(float alpha, const Matrix& x, Matrix& out);

/// Element-wise sum / difference / product.
[[nodiscard]] Matrix add(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix sub(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// In-place scale.
void scale(Matrix& a, float alpha) noexcept;

/// Adds a (1 x n) bias row to every row of a (m x n) matrix, in place.
void add_row_broadcast(Matrix& a, const Matrix& bias_row);

/// Returns (1 x n) column sums of a (m x n) matrix, rows added in order.
[[nodiscard]] Matrix column_sums(const Matrix& a);

/// column_sums into a caller-owned (1 x n) output, reusing its storage.
void column_sums_into(const Matrix& a, Matrix& out);

/// Frobenius / L2 norm of all entries.
[[nodiscard]] double frobenius_norm(const Matrix& a) noexcept;

/// Sum of squared differences over all entries.
[[nodiscard]] double squared_distance(const Matrix& a, const Matrix& b);

/// Per-row mean squared error between two equally-shaped matrices.
[[nodiscard]] std::vector<float> row_mse(const Matrix& a, const Matrix& b);

}  // namespace safeloc::nn
