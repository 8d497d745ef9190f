#include "src/nn/dense.h"

#include <stdexcept>

#include "src/nn/init.h"

namespace safeloc::nn {

Dense::Dense(std::size_t fan_in, std::size_t fan_out, util::Rng& rng,
             InitScheme scheme)
    : w_(fan_in, fan_out),
      b_(1, fan_out),
      gw_(fan_in, fan_out),
      gb_(1, fan_out) {
  switch (scheme) {
    case InitScheme::kHeNormal: init_he_normal(w_, rng); break;
    case InitScheme::kXavierUniform: init_xavier_uniform(w_, rng); break;
  }
}

Matrix Dense::forward(const Matrix& x, bool train) {
  if (x.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::forward: input width " +
                                x.shape_string() + " != fan_in " +
                                std::to_string(w_.rows()));
  }
  if (train) x_cache_ = x;
  // Dispatch-selected GEMM + fused bias epilogue (bit-identical to the
  // scalar matmul + add_row_broadcast on every variant).
  Matrix y;
  matmul_into_auto(x, w_, y);
  bias_act_rows(y, b_, /*relu=*/false);
  return y;
}

void Dense::backward_params(const Matrix& grad_out) {
  if (x_cache_.empty()) {
    throw std::logic_error("Dense::backward without cached forward");
  }
  // matmul_at_b(x, g) over the reused workspace. This step's gradient is
  // summed on its own and then added to the accumulator; accumulating
  // straight into gw_ would change the summation order.
  transpose_into(x_cache_, xt_);
  matmul_into_auto(xt_, grad_out, gw_step_);
  axpy(1.0f, gw_step_, gw_);
  column_sums_into(grad_out, gb_step_);
  axpy(1.0f, gb_step_, gb_);
}

Matrix Dense::backward(const Matrix& grad_out) {
  backward_params(grad_out);
  transpose_into(w_, wt_);
  Matrix dx;
  matmul_into_auto(grad_out, wt_, dx);
  return dx;
}

std::vector<ParamRef> Dense::parameters(const std::string& prefix) {
  return {{prefix + ".w", &w_, &gw_}, {prefix + ".b", &b_, &gb_}};
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

std::string Dense::kind() const {
  return "dense(" + std::to_string(fan_in()) + "->" + std::to_string(fan_out()) +
         ")";
}

TiedDense::TiedDense(Dense& source, util::Rng& rng, bool update_source)
    : source_(&source),
      update_source_(update_source),
      b_(1, source.fan_in()),
      gb_(1, source.fan_in()) {
  Matrix tmp(1, b_.cols());
  init_xavier_uniform(tmp, rng);
  b_ = tmp;
  scale(b_, 0.1f);  // small bias init; the tied weight carries the structure
}

Matrix TiedDense::forward(const Matrix& x, bool train) {
  if (x.cols() != fan_in()) {
    throw std::invalid_argument("TiedDense::forward: input width mismatch");
  }
  if (train) x_cache_ = x;
  Matrix y = matmul_a_bt(x, source_->weight());  // x (n,out_src) * W^T
  add_row_broadcast(y, b_);
  return y;
}

Matrix TiedDense::backward(const Matrix& grad_out) {
  if (x_cache_.empty()) {
    throw std::logic_error("TiedDense::backward without cached forward");
  }
  axpy(1.0f, column_sums(grad_out), gb_);
  if (update_source_) {
    // dW_src = (x^T g)^T = g^T x, accumulated into the source's gradient.
    axpy(1.0f, matmul_at_b(grad_out, x_cache_), source_->weight_grad());
  }
  Matrix dx;
  matmul_into_auto(grad_out, source_->weight(), dx);
  return dx;
}

std::vector<ParamRef> TiedDense::parameters(const std::string& prefix) {
  // The tied weight belongs to (and is counted by) the source layer.
  return {{prefix + ".b", &b_, &gb_}};
}

std::unique_ptr<Layer> TiedDense::clone() const {
  throw std::logic_error(
      "TiedDense::clone: owning module must rebuild weight ties");
}

std::string TiedDense::kind() const {
  return "tied_dense(" + std::to_string(fan_in()) + "->" +
         std::to_string(fan_out()) + ")";
}

}  // namespace safeloc::nn
