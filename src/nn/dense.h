// Fully connected layer: y = x W + b, with W (fan_in x fan_out).
#pragma once

#include <memory>
#include <string>

#include "src/nn/layer.h"
#include "src/util/rng.h"

namespace safeloc::nn {

enum class InitScheme { kHeNormal, kXavierUniform };

class Dense final : public Layer {
 public:
  Dense(std::size_t fan_in, std::size_t fan_out, util::Rng& rng,
        InitScheme scheme = InitScheme::kHeNormal);

  [[nodiscard]] Matrix forward(const Matrix& x, bool train) override;
  [[nodiscard]] Matrix backward(const Matrix& grad_out) override;
  [[nodiscard]] std::vector<ParamRef> parameters(const std::string& prefix) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string kind() const override;

  /// backward() without the input gradient: accumulates dL/dW and dL/db
  /// exactly as backward() does, for a layer whose dL/dx nobody reads (a
  /// network's first layer).
  void backward_params(const Matrix& grad_out);

  [[nodiscard]] std::size_t fan_in() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t fan_out() const noexcept { return w_.cols(); }

  [[nodiscard]] Matrix& weight() noexcept { return w_; }
  [[nodiscard]] const Matrix& weight() const noexcept { return w_; }
  [[nodiscard]] Matrix& bias() noexcept { return b_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return b_; }
  [[nodiscard]] Matrix& weight_grad() noexcept { return gw_; }
  [[nodiscard]] Matrix& bias_grad() noexcept { return gb_; }

 private:
  Matrix w_;   // (fan_in x fan_out)
  Matrix b_;   // (1 x fan_out)
  Matrix gw_;  // accumulated dL/dW
  Matrix gb_;  // accumulated dL/db
  Matrix x_cache_;
  // Backward workspace, reused across calls so a training step allocates
  // only the returned dL/dx: x^T, W^T, and this step's dL/dW and dL/db
  // before they are added to the accumulators.
  Matrix xt_, wt_, gw_step_, gb_step_;
};

/// Decoder-side layer whose weight is the transpose of a source Dense layer
/// (weight tying). Only the bias is an independent trainable parameter.
///
/// SAFELOC's fused network mirrors decoder layers onto encoder layers: "we
/// freeze the gradients from the encoder and propagate them to their
/// corresponding layers in the decoder". We realize that as: the decoder
/// *shares* the encoder's weights (so encoder updates propagate to the
/// decoder for free) and the reconstruction loss does not write back into
/// the encoder weights (frozen; see `update_source`).
class TiedDense final : public Layer {
 public:
  /// `source` must outlive this layer. Forward computes y = x W_src^T + b.
  TiedDense(Dense& source, util::Rng& rng, bool update_source = false);

  [[nodiscard]] Matrix forward(const Matrix& x, bool train) override;
  [[nodiscard]] Matrix backward(const Matrix& grad_out) override;
  [[nodiscard]] std::vector<ParamRef> parameters(const std::string& prefix) override;

  /// TiedDense cannot be cloned standalone — the owning module must rebuild
  /// the tie against its own copy of the source layer. Throws.
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string kind() const override;

  /// Rebinds to a new source (used by module copy constructors).
  void rebind(Dense& source) noexcept { source_ = &source; }

  [[nodiscard]] std::size_t fan_in() const noexcept { return source_->fan_out(); }
  [[nodiscard]] std::size_t fan_out() const noexcept { return source_->fan_in(); }
  [[nodiscard]] Matrix& bias() noexcept { return b_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return b_; }

 private:
  Dense* source_;  // non-owning
  bool update_source_;
  Matrix b_;   // (1 x fan_out)
  Matrix gb_;
  Matrix x_cache_;
};

}  // namespace safeloc::nn
