#include "src/nn/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace safeloc::nn {

void Sgd::step(std::span<const ParamRef> params) {
  for (const auto& p : params) {
    axpy(static_cast<float>(-lr_), *p.grad, *p.value);
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

void Adam::step(std::span<const ParamRef> params) {
  if (m_.empty()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      m_[i].assign(params[i].value->size(), 0.0f);
      v_[i].assign(params[i].value->size(), 0.0f);
    }
  }
  if (m_.size() != params.size()) {
    throw std::logic_error("Adam::step: parameter list changed size");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double alpha = lr_ * std::sqrt(bc2) / bc1;
  const simd::AdamStep coeffs{beta1_,        beta2_, 1.0 - beta1_,
                              1.0 - beta2_, alpha,  eps_};
  const simd::KernelTable& kernels = simd::active();

  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix& value = *params[i].value;
    if (m_[i].size() != value.size()) {
      throw std::logic_error("Adam::step: parameter shape changed");
    }
    kernels.adam(value.data(), m_[i].data(), v_[i].data(),
                 params[i].grad->data(), value.size(), coeffs);
  }
}

}  // namespace safeloc::nn
