// Bitwise-identity tests for the SIMD kernel family (src/nn/simd/): every
// dispatch variant supported on the build machine must produce byte-exact
// results against the scalar reference across odd/prime shapes, ReLU-sparse
// inputs, and tie-heavy reductions; the backward GEMMs and Adam must match
// the plain scalar training loops they replaced — plus SAFELOC_KERNEL
// dispatcher round-trip coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/nn/dense.h"
#include "src/nn/activations.h"
#include "src/nn/matrix.h"
#include "src/nn/optimizer.h"
#include "src/nn/sequential.h"
#include "src/nn/simd/dispatch.h"
#include "src/serve/serving_net.h"
#include "src/util/config.h"
#include "src/util/rng.h"

namespace {

using namespace safeloc;
namespace simd = nn::simd;

/// Shapes deliberately misaligned with 4/8-lane widths: primes, one-offs
/// around lane boundaries, and the paper GM layer widths (128->128->128->89
/// classifier, 520-feature input on the largest building).
const std::vector<std::size_t> kOddSizes = {1, 2, 3, 5, 7, 8, 9, 13, 17, 31, 33};
const std::vector<std::size_t> kPaperSizes = {64, 89, 128};

/// Fills with uniform values and zeroes out ~half the entries — the
/// ReLU-activation sparsity the gemm zero-skip is tuned for.
void fill_relu_like(nn::Matrix& m, util::Rng& rng) {
  for (float& v : m.flat()) {
    v = rng.bernoulli(0.5) ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
  }
}

void expect_bitwise_equal(const nn::Matrix& a, const nn::Matrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

std::string case_name(simd::Variant v, std::size_t m, std::size_t k,
                      std::size_t n) {
  return std::string(simd::variant_name(v)) + " @ " + std::to_string(m) +
         "x" + std::to_string(k) + "x" + std::to_string(n);
}

class EnvGuard {
 public:
  explicit EnvGuard(const char* name)
      : name_(name), saved_(util::env_optional(name)) {}
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
    simd::reload_kernel_env();
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

TEST(SimdGemm, AllVariantsBitwiseEqualScalarAcrossOddShapes) {
  util::Rng rng(0x51d1);
  const auto variants = simd::supported_variants();
  ASSERT_FALSE(variants.empty());
  for (const std::size_t m : kOddSizes) {
    for (const std::size_t k : kOddSizes) {
      for (const std::size_t n : kOddSizes) {
        nn::Matrix a(m, k), b(k, n);
        fill_relu_like(a, rng);
        for (float& v : b.flat()) v = rng.uniform_f(-0.5f, 0.5f);
        nn::Matrix want;
        nn::matmul_into(a, b, want);
        for (const simd::Variant v : variants) {
          nn::Matrix got;
          nn::matmul_into_variant(a, b, got, v);
          expect_bitwise_equal(want, got, case_name(v, m, k, n));
        }
      }
    }
  }
}

TEST(SimdGemm, AllVariantsBitwiseEqualScalarAtPaperShapes) {
  util::Rng rng(0x51d2);
  for (const std::size_t m : {std::size_t{1}, std::size_t{64},
                              std::size_t{256}, std::size_t{1024}}) {
    for (const std::size_t k : kPaperSizes) {
      for (const std::size_t n : kPaperSizes) {
        nn::Matrix a(m, k), b(k, n);
        fill_relu_like(a, rng);
        for (float& v : b.flat()) v = rng.uniform_f(-0.5f, 0.5f);
        nn::Matrix want;
        nn::matmul_into(a, b, want);
        for (const simd::Variant v : simd::supported_variants()) {
          nn::Matrix got;
          nn::matmul_into_variant(a, b, got, v);
          expect_bitwise_equal(want, got, case_name(v, m, k, n));
        }
      }
    }
  }
}

TEST(SimdGemm, TiledPathBitwiseEqualScalarAboveFootprintThreshold) {
  // B = 520 x 4099 floats (~8.1 MB) crosses kBlockedGemmBytes, so every
  // variant runs its L1-tiled loop; prime-ish dims exercise tile tails.
  util::Rng rng(0x51d3);
  nn::Matrix a(7, 520), b(520, 4099);
  ASSERT_GT(b.size() * sizeof(float), nn::kBlockedGemmBytes);
  fill_relu_like(a, rng);
  for (float& v : b.flat()) v = rng.uniform_f(-0.5f, 0.5f);
  nn::Matrix want;
  nn::matmul_into(a, b, want);
  for (const simd::Variant v : simd::supported_variants()) {
    nn::Matrix got;
    nn::matmul_into_variant(a, b, got, v);
    expect_bitwise_equal(want, got, case_name(v, 7, 520, 4099));
  }
}

// ---------------------------------------------------------------------------
// Backward GEMMs (transposed operand, dispatched gemm)
// ---------------------------------------------------------------------------

/// The scalar matmul_at_b loop the dispatched version replaced, verbatim.
nn::Matrix reference_at_b(const nn::Matrix& a, const nn::Matrix& b) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  nn::Matrix c(m, n);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

/// The scalar matmul_a_bt loop the dispatched version replaced, verbatim.
nn::Matrix reference_a_bt(const nn::Matrix& a, const nn::Matrix& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  nn::Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return c;
}

/// Half zeros, a quarter of them negative zero, the rest uniform in
/// [-1, 1] — ReLU-like sparsity plus the signed zeros the zero-skip must
/// treat exactly like the scalar loops do.
void fill_signed_zeros(nn::Matrix& m, util::Rng& rng) {
  for (float& v : m.flat()) {
    if (rng.bernoulli(0.5)) {
      v = rng.bernoulli(0.25) ? -0.0f : 0.0f;
    } else {
      v = rng.uniform_f(-1.0f, 1.0f);
    }
  }
}

/// Runs `body` once per supported variant, forced through SAFELOC_KERNEL so
/// the production entry points (matmul_into_auto, nn::Adam) dispatch to it.
template <typename Body>
void for_each_forced_variant(Body&& body) {
  EnvGuard guard("SAFELOC_KERNEL");
  for (const simd::Variant v : simd::supported_variants()) {
    ::setenv("SAFELOC_KERNEL", simd::variant_name(v), 1);
    simd::reload_kernel_env();
    ASSERT_EQ(simd::active_variant(), v);
    body(v);
  }
}

/// (rows of the shared dimension k, m, n) for the backward GEMMs: k = 1 and
/// m = 1 edges, every n % 8 remainder, and the paper's training shapes
/// (batch 32 against the 128-89-62 encoder and its decoder).
struct BackwardShape {
  std::size_t k, m, n;
};
std::vector<BackwardShape> backward_shapes() {
  std::vector<BackwardShape> shapes;
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 33, 41}) {
    shapes.push_back({1, 5, n});
    shapes.push_back({7, 1, n});
    shapes.push_back({13, 9, n});
  }
  const std::size_t widths[][2] = {{128, 128}, {128, 89}, {89, 62},
                                   {62, 89},   {89, 128}, {62, 13}};
  for (const auto& w : widths) {
    shapes.push_back({32, w[0], w[1]});
    shapes.push_back({32, w[1], w[0]});
    shapes.push_back({7, w[0], w[1]});
  }
  return shapes;
}

TEST(SimdBackwardGemm, AtBBitwiseEqualsScalarLoopUnderEveryVariant) {
  util::Rng rng(0xa7b0);
  for_each_forced_variant([&](simd::Variant v) {
    for (const BackwardShape& s : backward_shapes()) {
      // a: activations (k x m), b: upstream gradient (k x n).
      nn::Matrix a(s.k, s.m), b(s.k, s.n);
      fill_signed_zeros(a, rng);
      fill_signed_zeros(b, rng);
      expect_bitwise_equal(reference_at_b(a, b), nn::matmul_at_b(a, b),
                           "at_b " + case_name(v, s.k, s.m, s.n));
    }
  });
}

TEST(SimdBackwardGemm, ABtBitwiseEqualsScalarLoopUnderEveryVariant) {
  util::Rng rng(0xab70);
  for_each_forced_variant([&](simd::Variant v) {
    for (const BackwardShape& s : backward_shapes()) {
      // a: upstream gradient (k x m), b: weight (n x m), finite.
      nn::Matrix a(s.k, s.m), b(s.n, s.m);
      fill_signed_zeros(a, rng);
      fill_signed_zeros(b, rng);
      expect_bitwise_equal(reference_a_bt(a, b), nn::matmul_a_bt(a, b),
                           "a_bt " + case_name(v, s.k, s.m, s.n));
    }
  });
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// The scalar Adam::step the dispatched kernel replaced, verbatim, for one
/// tensor with its own moment buffers.
class ReferenceAdam {
 public:
  explicit ReferenceAdam(double lr) : lr_(lr) {}

  void step(nn::Matrix& value, const nn::Matrix& grad) {
    if (m_.empty()) {
      m_.assign(value.size(), 0.0f);
      v_.assign(value.size(), 0.0f);
    }
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    const double alpha = lr_ * std::sqrt(bc2) / bc1;
    float* mv = m_.data();
    float* vv = v_.data();
    const float* g = grad.data();
    float* w = value.data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      mv[j] = static_cast<float>(beta1_ * mv[j] + (1.0 - beta1_) * g[j]);
      vv[j] = static_cast<float>(beta2_ * vv[j] +
                                 (1.0 - beta2_) * static_cast<double>(g[j]) * g[j]);
      w[j] -= static_cast<float>(alpha * mv[j] / (std::sqrt(vv[j]) + eps_));
    }
  }

 private:
  double lr_, beta1_ = 0.9, beta2_ = 0.999, eps_ = 1e-8;
  long t_ = 0;
  std::vector<float> m_, v_;
};

/// Gradients spanning 1e-30 .. 1e6 in magnitude, either sign, with a fifth
/// exactly zero (an untouched parameter).
void fill_wide_gradients(nn::Matrix& g, util::Rng& rng) {
  for (float& v : g.flat()) {
    if (rng.bernoulli(0.2)) {
      v = 0.0f;
      continue;
    }
    const float magnitude =
        std::pow(10.0f, static_cast<float>(rng.integer(-30, 6)));
    v = magnitude * rng.uniform_f(0.5f, 1.0f) * (rng.bernoulli(0.5) ? -1.0f : 1.0f);
  }
}

TEST(SimdAdam, AllVariantsBitwiseEqualScalarKernelOverSteps) {
  util::Rng rng(0xada0);
  const simd::KernelTable& scalar = simd::table_for(simd::Variant::kScalar);
  for (const std::size_t n : {1, 3, 4, 5, 7, 8, 9, 13, 31, 33, 130}) {
    std::vector<float> w0(n), g(n);
    for (float& v : w0) v = rng.uniform_f(-1.0f, 1.0f);
    for (const simd::Variant variant : simd::supported_variants()) {
      std::vector<float> w_want = w0, m_want(n), v_want(n);
      std::vector<float> w_got = w0, m_got(n), v_got(n);
      util::Rng grads(n);  // same gradient stream for every variant
      for (int t = 1; t <= 6; ++t) {
        nn::Matrix gm(1, n);
        fill_wide_gradients(gm, grads);
        const double bc1 = 1.0 - std::pow(0.9, t);
        const double bc2 = 1.0 - std::pow(0.999, t);
        const simd::AdamStep s{0.9, 0.999, 1.0 - 0.9, 1.0 - 0.999,
                               1e-3 * std::sqrt(bc2) / bc1, 1e-8};
        scalar.adam(w_want.data(), m_want.data(), v_want.data(), gm.data(), n,
                    s);
        simd::table_for(variant).adam(w_got.data(), m_got.data(),
                                      v_got.data(), gm.data(), n, s);
        const std::string what = std::string(simd::variant_name(variant)) +
                                 " n=" + std::to_string(n) +
                                 " t=" + std::to_string(t);
        EXPECT_EQ(0, std::memcmp(w_want.data(), w_got.data(), n * sizeof(float)))
            << "w " << what;
        EXPECT_EQ(0, std::memcmp(m_want.data(), m_got.data(), n * sizeof(float)))
            << "m " << what;
        EXPECT_EQ(0, std::memcmp(v_want.data(), v_got.data(), n * sizeof(float)))
            << "v " << what;
      }
    }
  }
}

TEST(SimdAdam, OptimizerBitwiseEqualsScalarLoopUnderEveryVariant) {
  for_each_forced_variant([&](simd::Variant v) {
    util::Rng rng(0xada1);
    nn::Matrix w(37, 61), b(1, 61), gw(37, 61), gb(1, 61);
    for (float& x : w.flat()) x = rng.uniform_f(-1.0f, 1.0f);
    for (float& x : b.flat()) x = rng.uniform_f(-0.1f, 0.1f);
    nn::Matrix w_ref = w, b_ref = b;
    const std::vector<nn::ParamRef> params = {{"w", &w, &gw}, {"b", &b, &gb}};
    nn::Adam adam(1e-3);
    ReferenceAdam ref_w(1e-3), ref_b(1e-3);
    for (int t = 0; t < 5; ++t) {
      fill_wide_gradients(gw, rng);
      fill_wide_gradients(gb, rng);
      adam.step(params);
      ref_w.step(w_ref, gw);
      ref_b.step(b_ref, gb);
      expect_bitwise_equal(w_ref, w, std::string("w ") + simd::variant_name(v));
      expect_bitwise_equal(b_ref, b, std::string("b ") + simd::variant_name(v));
    }
  });
}

// ---------------------------------------------------------------------------
// Fused bias + activation epilogue
// ---------------------------------------------------------------------------

TEST(SimdBiasAct, AllVariantsBitwiseEqualScalarWithAndWithoutRelu) {
  util::Rng rng(0xb1a5);
  for (const std::size_t rows : kOddSizes) {
    for (const std::size_t cols : kOddSizes) {
      nn::Matrix y(rows, cols), bias(1, cols);
      for (float& v : y.flat()) v = rng.uniform_f(-1.0f, 1.0f);
      for (float& v : bias.flat()) v = rng.uniform_f(-1.0f, 1.0f);
      for (const bool relu : {false, true}) {
        nn::Matrix want = y;
        simd::bias_act_scalar(want.data(), bias.data(), rows, cols, relu);
        for (const simd::Variant v : simd::supported_variants()) {
          nn::Matrix got = y;
          simd::table_for(v).bias_act(got.data(), bias.data(), rows, cols,
                                      relu);
          expect_bitwise_equal(want, got,
                               std::string(simd::variant_name(v)) +
                                   (relu ? " relu" : " linear"));
        }
      }
    }
  }
}

TEST(SimdBiasAct, FusedEpilogueMatchesUnfusedBroadcastPlusRelu) {
  util::Rng rng(0xb1a6);
  nn::Matrix y(17, 89), bias(1, 89);
  for (float& v : y.flat()) v = rng.uniform_f(-2.0f, 2.0f);
  for (float& v : bias.flat()) v = rng.uniform_f(-1.0f, 1.0f);

  nn::Matrix want = y;
  nn::add_row_broadcast(want, bias);
  for (float& v : want.flat()) v = v > 0.0f ? v : 0.0f;

  nn::Matrix got = y;
  nn::bias_act_rows(got, bias, /*relu=*/true);
  expect_bitwise_equal(want, got, "fused vs unfused epilogue");
}

// ---------------------------------------------------------------------------
// Argmax reduction
// ---------------------------------------------------------------------------

TEST(SimdArgmax, AllVariantsMatchScalarIncludingTies) {
  util::Rng rng(0xa55a);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{60}, std::size_t{89}, std::size_t{256}}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> x(n);
      // Coarse quantization forces frequent exact ties, so the
      // lowest-index tie-break is genuinely exercised.
      for (float& v : x) {
        v = static_cast<float>(rng.integer(0, 4)) * 0.25f;
      }
      const std::size_t want = simd::argmax_scalar(x.data(), n);
      for (const simd::Variant v : simd::supported_variants()) {
        EXPECT_EQ(want, simd::table_for(v).argmax(x.data(), n))
            << simd::variant_name(v) << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(SimdArgmax, TopKClassesUsesSameAnswerForKOne) {
  util::Rng rng(0xa55b);
  std::vector<float> probs(89);
  for (float& v : probs) v = rng.uniform_f(0.0f, 1.0f);
  const auto top1 = serve::top_k_classes(probs, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(top1.front().label),
            simd::argmax_scalar(probs.data(), probs.size()));
  // And k>1 still ranks that same class first.
  const auto top3 = serve::top_k_classes(probs, 3);
  EXPECT_EQ(top3.front().label, top1.front().label);
}

// ---------------------------------------------------------------------------
// Dispatcher / SAFELOC_KERNEL round-trip
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarIsAlwaysSupportedAndDefaultIsBest) {
  EXPECT_TRUE(simd::variant_supported(simd::Variant::kScalar));
  EnvGuard guard("SAFELOC_KERNEL");
  ::unsetenv("SAFELOC_KERNEL");
  simd::reload_kernel_env();
  EXPECT_EQ(simd::active_variant(), simd::best_supported_variant());
}

TEST(KernelDispatch, EnvForcingRoundTripsThroughDispatcher) {
  EnvGuard guard("SAFELOC_KERNEL");
  for (const simd::Variant v : simd::supported_variants()) {
    ::setenv("SAFELOC_KERNEL", simd::variant_name(v), 1);
    simd::reload_kernel_env();
    EXPECT_EQ(simd::active_variant(), v) << simd::variant_name(v);
    // The forced dispatcher output is bit-identical to the scalar kernel.
    util::Rng rng(0xd15b);
    nn::Matrix a(5, 33), b(33, 17);
    fill_relu_like(a, rng);
    for (float& vv : b.flat()) vv = rng.uniform_f(-0.5f, 0.5f);
    nn::Matrix want, got;
    nn::matmul_into(a, b, want);
    nn::matmul_into_auto(a, b, got);
    expect_bitwise_equal(want, got, simd::variant_name(v));
  }
}

TEST(KernelDispatch, AutoAndEmptyMeanBestSupported) {
  EnvGuard guard("SAFELOC_KERNEL");
  ::setenv("SAFELOC_KERNEL", "auto", 1);
  simd::reload_kernel_env();
  EXPECT_EQ(simd::active_variant(), simd::best_supported_variant());
  ::setenv("SAFELOC_KERNEL", "", 1);
  simd::reload_kernel_env();
  EXPECT_EQ(simd::active_variant(), simd::best_supported_variant());
}

TEST(KernelDispatch, UnknownVariantNameThrows) {
  EnvGuard guard("SAFELOC_KERNEL");
  ::setenv("SAFELOC_KERNEL", "avx512-someday", 1);
  simd::reload_kernel_env();
  EXPECT_THROW((void)simd::active_variant(), std::invalid_argument);
}

TEST(KernelDispatch, VariantNamesParseBothWays) {
  for (const simd::Variant v :
       {simd::Variant::kScalar, simd::Variant::kSse2, simd::Variant::kAvx2}) {
    const auto parsed = simd::parse_variant(simd::variant_name(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(simd::parse_variant("neon").has_value());
}

// ---------------------------------------------------------------------------
// Fusion through the layer stack
// ---------------------------------------------------------------------------

TEST(FusedForward, SequentialInferenceFusionBitwiseEqualsTrainPath) {
  util::Rng rng(0xf0f0);
  nn::Sequential net;
  net.emplace<nn::Dense>(33, 17, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(17, 9, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(9, 5, rng);

  nn::Matrix x(7, 33);
  fill_relu_like(x, rng);
  // train=true walks layer-by-layer (no fusion); train=false fuses each
  // Dense+ReLU pair into GEMM + bias_act. Same kernels, same order.
  const nn::Matrix unfused = net.forward(x, /*train=*/true);
  const nn::Matrix fused = net.forward(x, /*train=*/false);
  expect_bitwise_equal(unfused, fused, "sequential fusion");
}

}  // namespace
