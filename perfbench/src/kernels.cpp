#include "kernels.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.h"
#include "spans.h"
#include "src/core/fused_net.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/simd/dispatch.h"
#include "src/rss/dataset.h"
#include "src/serve/serving_net.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace safeloc;

constexpr std::size_t kTrainBatch = 32;

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng,
                         double zero_share) {
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] =
        rng.uniform() < zero_share ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
  }
  return m;
}

bool same_bits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) ==
             0;
}

/// The scalar contract for the backward GEMMs: every output element sums its
/// products in ascending k, with no fused multiply-add.
nn::Matrix reference_at_b(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.rows(); ++p) {
        acc += a.data()[p * a.cols() + i] * b.data()[p * b.cols() + j];
      }
      c.data()[i * c.cols() + j] = acc;
    }
  }
  return c;
}

nn::Matrix reference_a_bt(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += a.data()[i * a.cols() + p] * b.data()[j * b.cols() + p];
      }
      c.data()[i * c.cols() + j] = acc;
    }
  }
  return c;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("kernel bit-identity: " + what);
}

/// Every supported dispatch variant against the scalar kernel at one shape.
void check_forward(const nn::Matrix& x, const nn::Matrix& w,
                   const std::string& shape) {
  nn::Matrix scalar;
  nn::matmul_into_variant(x, w, scalar, nn::simd::Variant::kScalar);
  nn::Matrix out;
  nn::matmul_into_auto(x, w, out);
  require(same_bits(out, scalar), "matmul_into_auto vs scalar at " + shape);
  for (const nn::simd::Variant v : nn::simd::supported_variants()) {
    nn::matmul_into_variant(x, w, out, v);
    require(same_bits(out, scalar), std::string(nn::simd::variant_name(v)) +
                                        " vs scalar at " + shape);
  }
}

std::string shape_name(std::size_t n, const nn::Matrix& w) {
  return std::to_string(n) + "x" + std::to_string(w.rows()) + "x" +
         std::to_string(w.cols());
}

/// Median over `reps` timed calls of `body`, in microseconds.
template <typename Body>
double median_us(int reps, Body&& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  body();  // warm caches and lazy dispatch
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_us();
    body();
    samples.push_back(now_us() - t0);
  }
  return percentile(samples, 50.0);
}

}  // namespace

KernelTimes time_kernels(std::size_t num_classes, const nn::StateDict& served,
                         std::uint64_t seed) {
  util::Rng rng(seed ^ 0x6b65726eULL);
  core::FusedNet::Config config;
  config.num_classes = num_classes;
  core::FusedNet net(config, seed);
  std::vector<nn::ParamRef> params = net.parameters();

  struct Layer {
    nn::Matrix w, x, g;
  };
  std::vector<Layer> layers;
  for (const nn::ParamRef& p : params) {
    if (p.value->rows() < 2 || p.value->cols() < 2) continue;  // biases
    Layer layer;
    layer.w = *p.value;
    // Activations entering a dense layer are ReLU outputs: ~half zeros.
    layer.x = random_matrix(kTrainBatch, layer.w.rows(), rng, 0.5);
    layer.g = random_matrix(kTrainBatch, layer.w.cols(), rng, 0.0);
    const std::string shape = shape_name(kTrainBatch, layer.w);
    check_forward(layer.x, layer.w, shape);
    require(same_bits(nn::matmul_at_b(layer.x, layer.g),
                      reference_at_b(layer.x, layer.g)),
            "matmul_at_b vs ascending-k scalar at " + shape);
    require(same_bits(nn::matmul_a_bt(layer.g, layer.w),
                      reference_a_bt(layer.g, layer.w)),
            "matmul_a_bt vs ascending-k scalar at " + shape);
    layers.push_back(std::move(layer));
  }

  const serve::ServingNet serving = serve::ServingNet::from_state(served);
  for (std::size_t t = 0; t < served.tensor_count(); ++t) {
    const nn::NamedTensor& named = served.tensor(t);
    const nn::Matrix& tensor = named.value;
    if (tensor.rows() < 2 || named.name.rfind("dec", 0) == 0) continue;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      check_forward(random_matrix(batch, tensor.rows(), rng, 0.5), tensor,
                    shape_name(batch, tensor));
    }
  }

  KernelTimes out;
  constexpr int kReps = 200;
  std::vector<nn::Matrix> fwd_out(layers.size());
  out.matmul_fwd_us = median_us(kReps, [&] {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      nn::matmul_into_auto(layers[i].x, layers[i].w, fwd_out[i]);
    }
  });
  out.matmul_at_b_us = median_us(kReps, [&] {
    for (const Layer& l : layers) (void)nn::matmul_at_b(l.x, l.g);
  });
  out.matmul_a_bt_us = median_us(kReps, [&] {
    for (const Layer& l : layers) (void)nn::matmul_a_bt(l.g, l.w);
  });
  for (const nn::ParamRef& p : params) {
    *p.grad = random_matrix(p.value->rows(), p.value->cols(), rng, 0.0);
  }
  nn::Adam adam(1e-3);
  out.adam_step_us = median_us(kReps, [&] { adam.step(params); });

  serve::InferenceWorkspace ws;
  const nn::Matrix x1 = random_matrix(1, rss::kFeatureDim, rng, 0.0);
  const nn::Matrix x64 = random_matrix(64, rss::kFeatureDim, rng, 0.0);
  out.serving_forward_b1_us =
      median_us(kReps * 10, [&] { (void)serving.logits(x1, ws); });
  out.serving_forward_b64_us =
      median_us(kReps, [&] { (void)serving.logits(x64, ws); });
  return out;
}

}  // namespace perfbench
