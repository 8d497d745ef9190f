// Layer behaviour + gradient-correctness property tests.
//
// Every layer's backward pass is verified against central finite
// differences of a scalar loss — the strongest single invariant a
// hand-written NN substrate can satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/nn/activations.h"
#include "src/nn/dense.h"
#include "src/nn/gradcheck.h"
#include "src/nn/loss.h"
#include "src/nn/sequential.h"
#include "src/util/rng.h"

namespace safeloc::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = rng.uniform_f(-1.0f, 1.0f);
  return m;
}

/// Scalar loss = sum of elements of layer output (grad wrt output = ones).
double sum_forward(Layer& layer, const Matrix& x) {
  const Matrix y = layer.forward(x, /*train=*/false);
  double acc = 0.0;
  for (const float v : y.flat()) acc += v;
  return acc;
}

Matrix ones_like_output(Layer& layer, const Matrix& x) {
  const Matrix y = layer.forward(x, /*train=*/true);
  Matrix ones(y.rows(), y.cols());
  ones.fill(1.0f);
  return ones;
}

TEST(Dense, ForwardComputesAffineMap) {
  util::Rng rng(1);
  Dense dense(2, 3, rng);
  dense.weight() = Matrix(2, 3, {1, 2, 3, 4, 5, 6});
  dense.bias() = Matrix(1, 3, {0.5f, -0.5f, 1.0f});
  const Matrix x(1, 2, {2, -1});
  const Matrix y = dense.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0), 2 * 1 - 1 * 4 + 0.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 2 * 2 - 1 * 5 - 0.5f);
  EXPECT_FLOAT_EQ(y(0, 2), 2 * 3 - 1 * 6 + 1.0f);
}

TEST(Dense, ForwardRejectsWrongWidth) {
  util::Rng rng(1);
  Dense dense(4, 2, rng);
  EXPECT_THROW((void)dense.forward(Matrix(3, 5), false), std::invalid_argument);
}

TEST(Dense, BackwardWithoutForwardThrows) {
  util::Rng rng(1);
  Dense dense(2, 2, rng);
  EXPECT_THROW((void)dense.backward(Matrix(1, 2)), std::logic_error);
}

TEST(Dense, InputGradientMatchesFiniteDifferences) {
  util::Rng rng(7);
  Dense dense(5, 4, rng);
  const Matrix x = random_matrix(3, 5, 21);
  const Matrix dx = dense.backward(ones_like_output(dense, x));
  const auto result = check_input_gradient(
      [&dense](const Matrix& probe) { return sum_forward(dense, probe); }, x,
      dx);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(Dense, WeightGradientMatchesFiniteDifferences) {
  util::Rng rng(7);
  Dense dense(4, 3, rng);
  const Matrix x = random_matrix(2, 4, 22);
  dense.weight_grad().zero();
  dense.bias_grad().zero();
  (void)dense.backward(ones_like_output(dense, x));
  const auto result = check_param_gradient(
      [&dense, &x]() { return sum_forward(dense, x); }, dense.weight(),
      dense.weight_grad());
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(Dense, BiasGradientIsColumnSumOfUpstream) {
  util::Rng rng(7);
  Dense dense(3, 2, rng);
  const Matrix x = random_matrix(4, 3, 23);
  (void)dense.forward(x, true);
  Matrix g(4, 2);
  g.fill(2.0f);
  dense.bias_grad().zero();
  (void)dense.backward(g);
  EXPECT_FLOAT_EQ(dense.bias_grad()(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(dense.bias_grad()(0, 1), 8.0f);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(9);
  Dense dense(2, 2, rng);
  const Matrix x = random_matrix(1, 2, 24);
  (void)dense.backward(ones_like_output(dense, x));
  const float after_one = dense.bias_grad()(0, 0);
  (void)dense.backward(ones_like_output(dense, x));
  EXPECT_FLOAT_EQ(dense.bias_grad()(0, 0), 2.0f * after_one);
}

TEST(Dense, BackwardParamsAccumulatesTheSameGradientBytes) {
  // Paper-width layer, so the dispatched GEMMs run full strips and tails.
  util::Rng rng(11);
  Dense full(128, 89, rng);
  Dense params_only = full;
  for (int step = 0; step < 2; ++step) {  // second step exercises accumulation
    const Matrix x = random_matrix(32, 128, 30 + step);
    const Matrix g = random_matrix(32, 89, 40 + step);
    (void)full.forward(x, /*train=*/true);
    (void)params_only.forward(x, /*train=*/true);
    (void)full.backward(g);
    params_only.backward_params(g);
    ASSERT_EQ(full.weight_grad().size(), params_only.weight_grad().size());
    EXPECT_EQ(0, std::memcmp(full.weight_grad().data(),
                             params_only.weight_grad().data(),
                             full.weight_grad().size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(full.bias_grad().data(),
                             params_only.bias_grad().data(),
                             full.bias_grad().size() * sizeof(float)));
  }
}

TEST(TiedDense, ForwardUsesTransposedSourceWeight) {
  util::Rng rng(3);
  Dense source(3, 2, rng);  // W: (3x2)
  TiedDense tied(source, rng);
  tied.bias().zero();
  const Matrix x = random_matrix(4, 2, 31);
  const Matrix y = tied.forward(x, false);
  const Matrix expected = matmul(x, transpose(source.weight()));
  ASSERT_EQ(y.rows(), expected.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y.data()[i], expected.data()[i], 1e-5f);
  }
}

TEST(TiedDense, OnlyBiasIsOwnParameter) {
  util::Rng rng(3);
  Dense source(3, 2, rng);
  TiedDense tied(source, rng);
  const auto params = tied.parameters("dec");
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0].name, "dec.b");
  EXPECT_EQ(params[0].value->size(), 3u);
}

TEST(TiedDense, InputGradientMatchesFiniteDifferences) {
  util::Rng rng(5);
  Dense source(4, 3, rng);
  TiedDense tied(source, rng);
  const Matrix x = random_matrix(2, 3, 32);
  const Matrix dx = tied.backward(ones_like_output(tied, x));
  const auto result = check_input_gradient(
      [&tied](const Matrix& probe) { return sum_forward(tied, probe); }, x, dx);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(TiedDense, SourceWeightGradientFlowsWhenEnabled) {
  util::Rng rng(5);
  Dense source(4, 3, rng);
  TiedDense tied(source, rng, /*update_source=*/true);
  const Matrix x = random_matrix(2, 3, 33);
  source.weight_grad().zero();
  (void)tied.backward(ones_like_output(tied, x));
  EXPECT_GT(frobenius_norm(source.weight_grad()), 0.0);

  TiedDense frozen(source, rng, /*update_source=*/false);
  source.weight_grad().zero();
  (void)frozen.backward(ones_like_output(frozen, x));
  EXPECT_EQ(frobenius_norm(source.weight_grad()), 0.0);
}

TEST(TiedDense, CloneThrows) {
  util::Rng rng(5);
  Dense source(2, 2, rng);
  TiedDense tied(source, rng);
  EXPECT_THROW((void)tied.clone(), std::logic_error);
}

TEST(ReLU, ZeroesNegativesAndGatesGradient) {
  ReLU relu;
  const Matrix x(1, 4, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Matrix y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
  Matrix g(1, 4);
  g.fill(1.0f);
  const Matrix dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 1.0f);
}

TEST(Sigmoid, GradientMatchesFiniteDifferences) {
  Sigmoid sigmoid;
  const Matrix x = random_matrix(2, 3, 41);
  const Matrix dx = sigmoid.backward(ones_like_output(sigmoid, x));
  const auto result = check_input_gradient(
      [&sigmoid](const Matrix& probe) { return sum_forward(sigmoid, probe); },
      x, dx);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(Tanh, GradientMatchesFiniteDifferences) {
  Tanh tanh_layer;
  const Matrix x = random_matrix(2, 3, 42);
  const Matrix dx = tanh_layer.backward(ones_like_output(tanh_layer, x));
  const auto result = check_input_gradient(
      [&tanh_layer](const Matrix& probe) {
        return sum_forward(tanh_layer, probe);
      },
      x, dx);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout dropout(0.5, 11);
  const Matrix x = random_matrix(3, 3, 43);
  const Matrix y = dropout.forward(x, /*train=*/false);
  EXPECT_EQ(x, y);
}

TEST(Dropout, TrainModeZeroesAboutPFractionAndRescales) {
  Dropout dropout(0.5, 12);
  Matrix x(10, 100);
  x.fill(1.0f);
  const Matrix y = dropout.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (const float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout rescale 1/(1-p)
    }
  }
  const double fraction = static_cast<double>(zeros) / 1000.0;
  EXPECT_NEAR(fraction, 0.5, 0.07);
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1, 1), std::invalid_argument);
}

TEST(Sequential, ChainsLayersAndBackpropagates) {
  util::Rng rng(13);
  Sequential net;
  net.emplace<Dense>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(8, 3, rng);

  const Matrix x = random_matrix(5, 4, 44);
  const Matrix y = net.forward(x, true);
  ASSERT_EQ(y.rows(), 5u);
  ASSERT_EQ(y.cols(), 3u);

  Matrix ones(5, 3);
  ones.fill(1.0f);
  const Matrix dx = net.backward(ones);
  const auto result = check_input_gradient(
      [&net](const Matrix& probe) {
        const Matrix out = net.forward(probe, false);
        double acc = 0.0;
        for (const float v : out.flat()) acc += v;
        return acc;
      },
      x, dx);
  EXPECT_TRUE(result.ok) << "max abs err " << result.max_abs_error;
}

TEST(Sequential, CopyIsDeep) {
  util::Rng rng(14);
  Sequential net;
  net.emplace<Dense>(2, 2, rng);
  Sequential copy = net;
  auto orig_params = net.parameters();
  auto copy_params = copy.parameters();
  copy_params[0].value->fill(9.0f);
  EXPECT_NE((*orig_params[0].value)(0, 0), 9.0f);
}

TEST(Sequential, ParameterNamesAreStableAcrossCopies) {
  util::Rng rng(15);
  Sequential net;
  net.emplace<Dense>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(4, 2, rng);
  Sequential copy = net;
  const auto a = net.parameters();
  const auto b = copy.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name, b[i].name);
}

TEST(Sequential, ArchitectureString) {
  util::Rng rng(16);
  Sequential net;
  net.emplace<Dense>(2, 3, rng);
  net.emplace<ReLU>();
  EXPECT_EQ(net.architecture_string(), "dense(2->3) -> relu");
}

TEST(Module, ParameterCountSumsAllTensors) {
  util::Rng rng(17);
  Sequential net;
  net.emplace<Dense>(10, 5, rng);  // 55
  net.emplace<Dense>(5, 2, rng);   // 12
  EXPECT_EQ(net.parameter_count(), 67u);
}

TEST(Module, ZeroGradClearsAccumulatedGradients) {
  util::Rng rng(18);
  Sequential net;
  net.emplace<Dense>(3, 3, rng);
  const Matrix x = random_matrix(2, 3, 45);
  (void)net.forward(x, true);
  Matrix ones(2, 3);
  ones.fill(1.0f);
  (void)net.backward(ones);
  net.zero_grad();
  for (const auto& p : net.parameters()) {
    EXPECT_EQ(frobenius_norm(*p.grad), 0.0);
  }
}

}  // namespace
}  // namespace safeloc::nn
