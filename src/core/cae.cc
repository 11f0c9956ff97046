#include "core/cae.h"

namespace caee {
namespace core {

Cae::Cae(const CaeConfig& config, Rng* rng) : config_(config) {
  CAEE_CHECK_MSG(config_.num_layers >= 1, "need at least one conv layer");
  CAEE_CHECK_MSG(config_.embed_dim >= 1, "embed_dim must be >= 1");
  const int64_t d = config_.embed_dim;
  const int64_t k = config_.kernel;

  encoder_.resize(static_cast<size_t>(config_.num_layers));
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    auto& layer = encoder_[static_cast<size_t>(l)];
    layer.glu = std::make_unique<nn::Glu>(d, k, nn::Padding::kSame, rng);
    layer.conv =
        std::make_unique<nn::Conv1dLayer>(d, d, k, nn::Padding::kSame, rng);
    const std::string prefix = "encoder.layer" + std::to_string(l);
    RegisterModule(prefix + ".glu", layer.glu.get());
    RegisterModule(prefix + ".conv", layer.conv.get());
  }

  decoder_.resize(static_cast<size_t>(config_.num_layers));
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    auto& layer = decoder_[static_cast<size_t>(l)];
    layer.glu = std::make_unique<nn::Glu>(d, k, nn::Padding::kCausal, rng);
    layer.conv =
        std::make_unique<nn::Conv1dLayer>(d, d, k, nn::Padding::kCausal, rng);
    const std::string prefix = "decoder.layer" + std::to_string(l);
    RegisterModule(prefix + ".glu", layer.glu.get());
    RegisterModule(prefix + ".conv", layer.conv.get());
    const bool wants_attention =
        config_.attention == AttentionMode::kAllLayers ||
        (config_.attention == AttentionMode::kLastLayer &&
         l == config_.num_layers - 1);
    if (wants_attention) {
      layer.attention = std::make_unique<nn::GlobalAttention>(d, rng);
      RegisterModule(prefix + ".attention", layer.attention.get());
    }
  }

  head_glu_ = std::make_unique<nn::Glu>(d, k, nn::Padding::kCausal, rng);
  head_conv_ =
      std::make_unique<nn::Conv1dLayer>(d, d, 1, nn::Padding::kNone, rng);
  RegisterModule("head.glu", head_glu_.get());
  RegisterModule("head.conv", head_conv_.get());
}

infer::CaePlan Cae::CompilePlan(size_t slot_base) const {
  // Records the exact layer walk Reconstruct performs; keep the two in
  // lockstep (the plan-vs-autograd identity tests assert the equivalence).
  infer::CaePlan plan(config_.embed_dim, slot_base);
  for (const auto& layer : encoder_) {
    plan.AddEncoderLayer(infer::MakeConvStep(layer.glu->a1()),
                         infer::MakeConvStep(layer.glu->a2()),
                         infer::MakeConvStep(*layer.conv), config_.enc_act);
  }
  for (size_t l = 0; l < decoder_.size(); ++l) {
    const auto& layer = decoder_[l];
    plan.AddDecoderLayer(infer::MakeConvStep(layer.glu->a1()),
                         infer::MakeConvStep(layer.glu->a2()),
                         infer::MakeConvStep(*layer.conv), config_.dec_act);
    if (layer.attention) {
      const nn::Linear& z = layer.attention->z_proj();
      plan.SetDecoderAttention(l, z.weight()->value(),
                               z.bias() != nullptr
                                   ? z.bias()->value().data()
                                   : nullptr);
    }
  }
  plan.SetHead(infer::MakeConvStep(head_glu_->a1()),
               infer::MakeConvStep(head_glu_->a2()),
               infer::MakeConvStep(*head_conv_), config_.recon_act);
  return plan;
}

ag::Var Cae::Reconstruct(const ag::Var& x) const {
  const Tensor& xv = x->value();
  CAEE_CHECK_MSG(xv.rank() == 3, "Cae input must be (B, w, D')");
  CAEE_CHECK_MSG(xv.dim(2) == config_.embed_dim,
                 "embed dim mismatch: " << xv.dim(2) << " vs "
                                        << config_.embed_dim);

  // Encoder (Eq. 3): hidden states per layer, with residual skips.
  std::vector<ag::Var> enc_states;
  enc_states.reserve(static_cast<size_t>(config_.num_layers));
  ag::Var e = x;
  for (const auto& layer : encoder_) {
    ag::Var h = layer.conv->Forward(layer.glu->Forward(e));
    h = nn::Apply(config_.enc_act, h);
    e = ag::Add(h, e);  // skip connection
    enc_states.push_back(e);
  }

  // Decoder input: PAD, x1, ..., x_{w-1} (Fig. 6).
  ag::Var d = ag::ShiftTimeRight(x, 1);
  for (size_t l = 0; l < decoder_.size(); ++l) {
    const auto& layer = decoder_[l];
    // Eq. 6: f_D(conv(GLU(D)) + E^(l)) — encoder state added pre-activation.
    ag::Var h = layer.conv->Forward(layer.glu->Forward(d));
    h = ag::Add(h, enc_states[l]);
    h = nn::Apply(config_.dec_act, h);
    d = ag::Add(h, d);  // skip connection
    if (layer.attention) {
      d = layer.attention->Forward(d, enc_states[l]);  // D <- C + D (Sec 3.1.4)
    }
  }

  // Reconstruction head (Sec. 3.1.5).
  ag::Var out = head_conv_->Forward(head_glu_->Forward(d));
  return nn::Apply(config_.recon_act, out);
}

}  // namespace core
}  // namespace caee
