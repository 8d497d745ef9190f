#include "src/nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace safeloc::nn {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Shared matmul_into* prologue: shape check + zeroed output.
void prepare_gemm_out(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols() == b.rows(), "matmul: inner dims mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    out.reshape_discard(a.rows(), b.cols());
  } else {
    out.zero();
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  require(data_.size() == rows_ * cols_, "Matrix: data size != rows*cols");
}

void Matrix::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::reshape_discard(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

Matrix Matrix::slice_rows(std::size_t begin, std::size_t end) const {
  require(begin <= end && end <= rows_, "slice_rows: bad range");
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(end * cols_),
            out.data());
  return out;
}

std::string Matrix::shape_string() const {
  // Appended piece by piece: GCC 12 reports a false -Wrestrict on the
  // `"(" + std::string&&` chain once it is inlined.
  std::string shape = "(";
  shape += std::to_string(rows_);
  shape += 'x';
  shape += std::to_string(cols_);
  shape += ')';
  return shape;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  prepare_gemm_out(a, b, out);
  simd::gemm_naive_scalar(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                          b.cols());
}

void matmul_into_auto(const Matrix& a, const Matrix& b, Matrix& out) {
  prepare_gemm_out(a, b, out);
  simd::active().gemm(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                      b.cols());
}

void matmul_into_variant(const Matrix& a, const Matrix& b, Matrix& out,
                         simd::Variant variant) {
  prepare_gemm_out(a, b, out);
  simd::table_for(variant).gemm(a.data(), b.data(), out.data(), a.rows(),
                                a.cols(), b.cols());
}

void bias_act_rows(Matrix& y, const Matrix& bias_row, bool relu) {
  require(bias_row.rows() == 1 && bias_row.cols() == y.cols(),
          "bias_act_rows: bias must be (1 x cols)");
  simd::active().bias_act(y.data(), bias_row.data(), y.rows(), y.cols(),
                          relu);
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_at_b: outer dims mismatch");
  Matrix at, c;
  transpose_into(a, at);
  matmul_into_auto(at, b, c);
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_a_bt: inner dims mismatch");
  Matrix bt, c;
  transpose_into(b, bt);
  matmul_into_auto(a, bt, c);
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix out;
  transpose_into(a, out);
  return out;
}

void transpose_into(const Matrix& a, Matrix& out) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (out.rows() != cols || out.cols() != rows) out.reshape_discard(cols, rows);
  // 16x16 tiles keep both the read and the strided write side in cache.
  constexpr std::size_t kTile = 16;
  const float* src = a.data();
  float* dst = out.data();
  for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, rows);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, cols);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
}

void axpy(float alpha, const Matrix& x, Matrix& out) {
  require(x.rows() == out.rows() && x.cols() == out.cols(),
          "axpy: shape mismatch");
  float* o = out.data();
  const float* xd = x.data();
  for (std::size_t i = 0; i < x.size(); ++i) o[i] += alpha * xd[i];
}

Matrix add(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "add: shape mismatch");
  Matrix c = a;
  axpy(1.0f, b, c);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "sub: shape mismatch");
  Matrix c = a;
  axpy(-1.0f, b, c);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "hadamard: shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

void scale(Matrix& a, float alpha) noexcept {
  for (float& v : a.flat()) v *= alpha;
}

void add_row_broadcast(Matrix& a, const Matrix& bias_row) {
  require(bias_row.rows() == 1 && bias_row.cols() == a.cols(),
          "add_row_broadcast: bias must be (1 x cols)");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* arow = a.data() + i * a.cols();
    const float* b = bias_row.data();
    for (std::size_t j = 0; j < a.cols(); ++j) arow[j] += b[j];
  }
}

Matrix column_sums(const Matrix& a) {
  Matrix out;
  column_sums_into(a, out);
  return out;
}

void column_sums_into(const Matrix& a, Matrix& out) {
  if (out.rows() != 1 || out.cols() != a.cols()) {
    out.reshape_discard(1, a.cols());
  } else {
    out.zero();
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) out.data()[j] += arow[j];
  }
}

double frobenius_norm(const Matrix& a) noexcept {
  double acc = 0.0;
  for (const float v : a.flat()) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

double squared_distance(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "squared_distance: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a.data()[i]) - b.data()[i];
    acc += d * d;
  }
  return acc;
}

std::vector<float> row_mse(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "row_mse: shape mismatch");
  std::vector<float> out(a.rows(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ar = a.data() + i * a.cols();
    const float* br = b.data() + i * a.cols();
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = static_cast<double>(ar[j]) - br[j];
      acc += d * d;
    }
    out[i] = static_cast<float>(acc / static_cast<double>(a.cols()));
  }
  return out;
}

}  // namespace safeloc::nn
