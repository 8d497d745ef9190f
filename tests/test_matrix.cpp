// Unit tests for the matrix substrate: shapes, BLAS-like ops, and the
// row-wise reductions the detection path depends on.
#include "src/nn/matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/rng.h"

namespace safeloc::nn {
namespace {

Matrix filled(std::size_t rows, std::size_t cols, float start) {
  Matrix m(rows, cols);
  float v = start;
  for (float& x : m.flat()) x = v++;
  return m;
}

TEST(Matrix, DefaultConstructedIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructorZeroInitializes) {
  const Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (const float v : m.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Matrix, DataConstructorChecksSize) {
  EXPECT_THROW(Matrix(2, 2, {1.0f, 2.0f, 3.0f}), std::invalid_argument);
  const Matrix m(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(m(1, 0), 3.0f);
}

TEST(Matrix, RowMajorIndexing) {
  Matrix m(2, 3);
  m(0, 2) = 5.0f;
  m(1, 0) = 7.0f;
  EXPECT_EQ(m.data()[2], 5.0f);
  EXPECT_EQ(m.data()[3], 7.0f);
}

TEST(Matrix, RowSpanViewsRow) {
  Matrix m = filled(3, 4, 0.0f);
  const auto row1 = m.row(1);
  ASSERT_EQ(row1.size(), 4u);
  EXPECT_EQ(row1[0], 4.0f);
  EXPECT_EQ(row1[3], 7.0f);
  row1[0] = 99.0f;
  EXPECT_EQ(m(1, 0), 99.0f);
}

TEST(Matrix, SliceRowsCopies) {
  const Matrix m = filled(4, 2, 0.0f);
  const Matrix slice = m.slice_rows(1, 3);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_EQ(slice(0, 0), 2.0f);
  EXPECT_EQ(slice(1, 1), 5.0f);
  EXPECT_THROW((void)m.slice_rows(3, 5), std::invalid_argument);
}

TEST(Matrix, Matmul) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matrix, MatmulIntoAutoReusesStorageAndChecksShapes) {
  const Matrix a = filled(2, 3, 1.0f);
  const Matrix b = filled(3, 4, 0.0f);
  Matrix out(2, 4);
  const float* storage = out.data();
  matmul_into_auto(a, b, out);
  EXPECT_EQ(out.data(), storage);  // shape matched: no reallocation
  EXPECT_EQ(out, matmul(a, b));

  Matrix bad = filled(4, 2, 0.0f);
  EXPECT_THROW(matmul_into_auto(a, bad, out), std::invalid_argument);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

TEST(Matrix, MatmulTransposedVariantsAgreeWithExplicitTranspose) {
  util::Rng rng(7);
  Matrix a(4, 3), b(4, 5), c(3, 5);
  for (float& v : a.flat()) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : b.flat()) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : c.flat()) v = rng.uniform_f(-1.0f, 1.0f);

  const Matrix at_b = matmul_at_b(a, b);          // (3x5)
  const Matrix at_b_ref = matmul(transpose(a), b);
  ASSERT_EQ(at_b.rows(), at_b_ref.rows());
  for (std::size_t i = 0; i < at_b.size(); ++i) {
    EXPECT_EQ(at_b.data()[i], at_b_ref.data()[i]);
  }

  const Matrix b_ct = matmul_a_bt(b, c);          // (4x5)·(3x5)^T = (4x3)
  const Matrix b_ct_ref = matmul(b, transpose(c));
  ASSERT_EQ(b_ct.rows(), b_ct_ref.rows());
  ASSERT_EQ(b_ct.cols(), b_ct_ref.cols());
  for (std::size_t i = 0; i < b_ct.size(); ++i) {
    EXPECT_EQ(b_ct.data()[i], b_ct_ref.data()[i]);
  }
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a = filled(3, 5, 1.0f);
  const Matrix att = transpose(transpose(a));
  EXPECT_EQ(a, att);
}

TEST(Matrix, AxpyAccumulates) {
  Matrix out(2, 2, {1, 1, 1, 1});
  const Matrix x(2, 2, {1, 2, 3, 4});
  axpy(2.0f, x, out);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 9.0f);
}

TEST(Matrix, AddSubHadamard) {
  const Matrix a(1, 3, {1, 2, 3});
  const Matrix b(1, 3, {4, 5, 6});
  EXPECT_FLOAT_EQ(add(a, b)(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(sub(b, a)(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(hadamard(a, b)(0, 1), 10.0f);
}

TEST(Matrix, AddRowBroadcast) {
  Matrix a(2, 3, {0, 0, 0, 1, 1, 1});
  const Matrix bias(1, 3, {10, 20, 30});
  add_row_broadcast(a, bias);
  EXPECT_FLOAT_EQ(a(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(a(1, 2), 31.0f);
  const Matrix bad(2, 3);
  EXPECT_THROW(add_row_broadcast(a, bad), std::invalid_argument);
}

TEST(Matrix, ColumnSums) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix s = column_sums(a);
  ASSERT_EQ(s.rows(), 1u);
  EXPECT_FLOAT_EQ(s(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(s(0, 2), 9.0f);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
}

TEST(Matrix, SquaredDistance) {
  const Matrix a(1, 2, {1, 2});
  const Matrix b(1, 2, {4, 6});
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(Matrix, RowMse) {
  const Matrix a(2, 2, {0, 0, 1, 1});
  const Matrix b(2, 2, {1, 1, 1, 1});
  const auto mse = row_mse(a, b);
  ASSERT_EQ(mse.size(), 2u);
  EXPECT_FLOAT_EQ(mse[0], 1.0f);
  EXPECT_FLOAT_EQ(mse[1], 0.0f);
}

TEST(Matrix, ScaleInPlace) {
  Matrix a(1, 3, {1, -2, 3});
  scale(a, -2.0f);
  EXPECT_FLOAT_EQ(a(0, 0), -2.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
}

TEST(Matrix, ReshapeDiscardZeroes) {
  Matrix a = filled(2, 2, 5.0f);
  a.reshape_discard(3, 1);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 1u);
  for (const float v : a.flat()) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace safeloc::nn
