#include "src/core/fused_net.h"

#include <cmath>
#include <stdexcept>

#include "src/nn/loss.h"

namespace safeloc::core {
namespace {

FusedNet::Config validated(FusedNet::Config config) {
  if (config.num_classes == 0) {
    throw std::invalid_argument("FusedNet: num_classes must be set");
  }
  if (config.input_dim != config.enc1) {
    throw std::invalid_argument(
        "FusedNet: input_dim must equal enc1 so the mirrored decoder "
        "reconstructs the input width (see header)");
  }
  return config;
}

}  // namespace

FusedNet::FusedNet(const Config& config, std::uint64_t seed)
    : config_(validated(config)),
      init_rng_(seed),
      enc1_(config_.input_dim, config_.enc1, init_rng_),
      enc2_(config_.enc1, config_.enc2, init_rng_),
      enc3_(config_.enc2, config_.enc3, init_rng_),
      cls_(config_.enc3, config_.num_classes, init_rng_,
           nn::InitScheme::kXavierUniform) {
  if (config_.tied_decoder) {
    // Shared storage with the encoder: recon-loss updates flow into the
    // shared weights through the decoder application only (the "propagate
    // to corresponding layers" of §IV.A).
    tied_dec1_ = std::make_unique<nn::TiedDense>(enc3_, init_rng_,
                                                 /*update_source=*/true);
    tied_dec2_ = std::make_unique<nn::TiedDense>(enc2_, init_rng_,
                                                 /*update_source=*/true);
  } else {
    untied_dec1_ =
        std::make_unique<nn::Dense>(config_.enc3, config_.enc2, init_rng_);
    untied_dec2_ =
        std::make_unique<nn::Dense>(config_.enc2, config_.enc1, init_rng_);
    // Warm-start from the transposed encoder so tied/untied ablations begin
    // from the same function.
    untied_dec1_->weight() = transpose(enc3_.weight());
    untied_dec2_->weight() = transpose(enc2_.weight());
  }
}

FusedNet::FusedNet(const FusedNet& other)
    : config_(other.config_),
      init_rng_(other.init_rng_),
      enc1_(other.enc1_),
      enc2_(other.enc2_),
      enc3_(other.enc3_),
      cls_(other.cls_),
      relu1_(other.relu1_),
      relu2_(other.relu2_),
      relu3_(other.relu3_),
      relu_d1_(other.relu_d1_) {
  if (other.tied_dec1_ != nullptr) {
    tied_dec1_ = std::make_unique<nn::TiedDense>(*other.tied_dec1_);
    tied_dec2_ = std::make_unique<nn::TiedDense>(*other.tied_dec2_);
    rebuild_decoder_ties();
  }
  if (other.untied_dec1_ != nullptr) {
    untied_dec1_ = std::make_unique<nn::Dense>(*other.untied_dec1_);
    untied_dec2_ = std::make_unique<nn::Dense>(*other.untied_dec2_);
  }
}

FusedNet& FusedNet::operator=(const FusedNet& other) {
  if (this == &other) return *this;
  FusedNet copy(other);
  *this = std::move(copy);
  return *this;
}

FusedNet::FusedNet(FusedNet&& other) noexcept
    : config_(other.config_),
      init_rng_(other.init_rng_),
      enc1_(std::move(other.enc1_)),
      enc2_(std::move(other.enc2_)),
      enc3_(std::move(other.enc3_)),
      cls_(std::move(other.cls_)),
      relu1_(std::move(other.relu1_)),
      relu2_(std::move(other.relu2_)),
      relu3_(std::move(other.relu3_)),
      relu_d1_(std::move(other.relu_d1_)),
      tied_dec1_(std::move(other.tied_dec1_)),
      tied_dec2_(std::move(other.tied_dec2_)),
      untied_dec1_(std::move(other.untied_dec1_)),
      untied_dec2_(std::move(other.untied_dec2_)) {
  rebuild_decoder_ties();
}

FusedNet& FusedNet::operator=(FusedNet&& other) noexcept {
  if (this == &other) return *this;
  config_ = other.config_;
  init_rng_ = other.init_rng_;
  enc1_ = std::move(other.enc1_);
  enc2_ = std::move(other.enc2_);
  enc3_ = std::move(other.enc3_);
  cls_ = std::move(other.cls_);
  relu1_ = std::move(other.relu1_);
  relu2_ = std::move(other.relu2_);
  relu3_ = std::move(other.relu3_);
  relu_d1_ = std::move(other.relu_d1_);
  tied_dec1_ = std::move(other.tied_dec1_);
  tied_dec2_ = std::move(other.tied_dec2_);
  untied_dec1_ = std::move(other.untied_dec1_);
  untied_dec2_ = std::move(other.untied_dec2_);
  rebuild_decoder_ties();
  return *this;
}

void FusedNet::rebuild_decoder_ties() {
  if (tied_dec1_ != nullptr) tied_dec1_->rebind(enc3_);
  if (tied_dec2_ != nullptr) tied_dec2_->rebind(enc2_);
}

FusedNet::ForwardResult FusedNet::forward(const nn::Matrix& x, bool train) {
  ForwardResult out;
  const nn::Matrix a1 = relu1_.forward(enc1_.forward(x, train), train);
  const nn::Matrix a2 = relu2_.forward(enc2_.forward(a1, train), train);
  out.latent = relu3_.forward(enc3_.forward(a2, train), train);

  if (config_.tied_decoder) {
    const nn::Matrix d1 =
        relu_d1_.forward(tied_dec1_->forward(out.latent, train), train);
    out.recon = tied_dec2_->forward(d1, train);  // linear output (see header)
  } else {
    const nn::Matrix d1 =
        relu_d1_.forward(untied_dec1_->forward(out.latent, train), train);
    out.recon = untied_dec2_->forward(d1, train);
  }
  out.logits = cls_.forward(out.latent, train);
  return out;
}

FusedNet::StepLosses FusedNet::backward(
    const nn::Matrix& x, const ForwardResult& fwd, std::span<const int> labels,
    double recon_weight, std::optional<bool> freeze_encoder_override) {
  StepLosses losses;

  // Classification head -> encoder.
  const auto ce = nn::softmax_cross_entropy(fwd.logits, labels);
  losses.classification = ce.loss;
  nn::Matrix g_latent = cls_.backward(ce.grad);

  // Reconstruction head. Gradient stops at the bottleneck when the encoder
  // is frozen w.r.t. the reconstruction loss (per-call override first).
  const bool freeze =
      freeze_encoder_override.value_or(config_.freeze_encoder_on_recon);
  auto recon = nn::mse_loss(fwd.recon, x);
  losses.reconstruction = recon.loss;
  if (recon_weight != 0.0) {
    scale(recon.grad, static_cast<float>(recon_weight));
    nn::Matrix g = recon.grad;
    if (config_.tied_decoder) {
      g = tied_dec2_->backward(g);
      g = relu_d1_.backward(g);
      g = tied_dec1_->backward(g);
    } else {
      g = untied_dec2_->backward(g);
      g = relu_d1_.backward(g);
      if (freeze) {
        untied_dec1_->backward_params(g);  // the bottleneck gradient stops
      } else {
        g = untied_dec1_->backward(g);
      }
    }
    if (!freeze) {
      axpy(1.0f, g, g_latent);  // let the recon loss shape the encoder too
    }
  }

  // Encoder chain (classification gradient, plus recon if unfrozen). The
  // input gradient of enc1 would be dL/dx, which training never reads.
  nn::Matrix g3 = enc3_.backward(relu3_.backward(g_latent));
  nn::Matrix g2 = enc2_.backward(relu2_.backward(g3));
  enc1_.backward_params(relu1_.backward(g2));
  return losses;
}

double FusedNet::backward_decoder(const nn::Matrix& target,
                                  const ForwardResult& fwd) {
  auto recon = nn::mse_loss(fwd.recon, target);
  nn::Matrix g = recon.grad;
  if (config_.tied_decoder) {
    g = tied_dec2_->backward(g);
    g = relu_d1_.backward(g);
    (void)tied_dec1_->backward(g);
  } else {
    g = untied_dec2_->backward(g);
    g = relu_d1_.backward(g);
    untied_dec1_->backward_params(g);
  }
  // The bottleneck gradient is dropped: encoder and classifier see nothing.
  return recon.loss;
}

nn::Matrix FusedNet::input_gradient(const nn::Matrix& x,
                                    std::span<const int> labels) {
  // Classification path only; parameter gradients are accumulated but the
  // caller (attacker oracle) never steps an optimizer over them.
  const nn::Matrix a1 = relu1_.forward(enc1_.forward(x, true), true);
  const nn::Matrix a2 = relu2_.forward(enc2_.forward(a1, true), true);
  const nn::Matrix latent = relu3_.forward(enc3_.forward(a2, true), true);
  const nn::Matrix logits = cls_.forward(latent, true);

  const auto ce = nn::softmax_cross_entropy(logits, labels);
  nn::Matrix g = cls_.backward(ce.grad);
  g = enc3_.backward(relu3_.backward(g));
  g = enc2_.backward(relu2_.backward(g));
  return enc1_.backward(relu1_.backward(g));
}

std::vector<float> FusedNet::reconstruction_error(const nn::Matrix& x) {
  const ForwardResult fwd = forward(x, /*train=*/false);
  std::vector<float> rce = row_mse(x, fwd.recon);
  for (float& v : rce) v = std::sqrt(v);  // RMSE (see header)
  return rce;
}

nn::Matrix FusedNet::denoise(const nn::Matrix& x) {
  return forward(x, /*train=*/false).recon;
}

std::vector<int> FusedNet::classify(const nn::Matrix& x) {
  return nn::argmax_rows(forward(x, /*train=*/false).logits);
}

std::vector<int> FusedNet::classify_with_denoise(const nn::Matrix& x,
                                                 double tau,
                                                 std::size_t* flagged_out) {
  const ForwardResult fwd = forward(x, /*train=*/false);
  std::vector<float> rce = row_mse(x, fwd.recon);

  std::vector<int> labels = nn::argmax_rows(fwd.logits);
  std::vector<std::size_t> flagged_rows;
  for (std::size_t i = 0; i < rce.size(); ++i) {
    if (std::sqrt(rce[i]) > tau) flagged_rows.push_back(i);
  }
  if (flagged_out != nullptr) *flagged_out = flagged_rows.size();
  if (flagged_rows.empty()) return labels;

  // Flagged samples: classify from the re-encoded, de-noised fingerprint.
  // The de-noised prediction replaces the direct one only when it is the
  // more confident of the two — a flagged-but-clean fingerprint (device
  // heterogeneity can trip the threshold) keeps its direct prediction,
  // while a genuinely poisoned one, whose direct logits are low-confidence
  // garbage, takes the de-noised path.
  const nn::Matrix direct_probs = nn::softmax(fwd.logits);
  nn::Matrix suspicious(flagged_rows.size(), x.cols());
  for (std::size_t i = 0; i < flagged_rows.size(); ++i) {
    const auto src = fwd.recon.row(flagged_rows[i]);
    auto dst = suspicious.row(i);
    for (std::size_t j = 0; j < src.size(); ++j) dst[j] = src[j];
  }
  const nn::Matrix denoised_logits =
      forward(suspicious, /*train=*/false).logits;
  const nn::Matrix denoised_probs = nn::softmax(denoised_logits);
  const std::vector<int> denoised_labels = nn::argmax_rows(denoised_logits);

  for (std::size_t i = 0; i < flagged_rows.size(); ++i) {
    const std::size_t row = flagged_rows[i];
    const float direct_conf = direct_probs(row, static_cast<std::size_t>(
                                                    labels[row]));
    const float denoised_conf = denoised_probs(
        i, static_cast<std::size_t>(denoised_labels[i]));
    if (denoised_conf > direct_conf) labels[row] = denoised_labels[i];
  }
  return labels;
}

std::vector<bool> FusedNet::detect_poisoned(const nn::Matrix& x, double tau) {
  const std::vector<float> rce = reconstruction_error(x);
  std::vector<bool> verdicts(rce.size());
  for (std::size_t i = 0; i < rce.size(); ++i) {
    verdicts[i] = static_cast<double>(rce[i]) > tau;
  }
  return verdicts;
}

std::vector<nn::ParamRef> FusedNet::parameters() {
  std::vector<nn::ParamRef> params;
  auto append = [&params](std::vector<nn::ParamRef> more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(enc1_.parameters("enc1"));
  append(enc2_.parameters("enc2"));
  append(enc3_.parameters("enc3"));
  if (config_.tied_decoder) {
    append(tied_dec1_->parameters("dec1"));
    append(tied_dec2_->parameters("dec2"));
  } else {
    append(untied_dec1_->parameters("dec1"));
    append(untied_dec2_->parameters("dec2"));
  }
  append(cls_.parameters("cls"));
  return params;
}

std::vector<nn::ParamRef> FusedNet::decoder_parameters() {
  std::vector<nn::ParamRef> params;
  auto append = [&params](std::vector<nn::ParamRef> more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  if (config_.tied_decoder) {
    append(tied_dec1_->parameters("dec1"));
    append(tied_dec2_->parameters("dec2"));
  } else {
    append(untied_dec1_->parameters("dec1"));
    append(untied_dec2_->parameters("dec2"));
  }
  return params;
}

}  // namespace safeloc::core
