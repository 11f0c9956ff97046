// CAE: convolutional sequence-to-sequence autoencoder (paper Sec. 3.1).
//
// Operates in embedding space: the input is an already-embedded window
// X (B, w, D') produced by the ensemble-level WindowEmbedding, which every
// member shares frozen (core/ensemble.h says why). Architecture per the
// paper:
//
//   encoder:  L x [ GLU (same-pad conv gates) -> conv (same pad) -> f_E ]
//             with residual skip connections                       (Eq. 3-5)
//   decoder:  input = X shifted right one step (PAD, x1..x_{w-1}); L x
//             [ GLU (causal) -> conv (causal) + E^(l) -> f_D ] + skip (Eq. 6)
//             followed by global attention against the encoder     (Eq. 7)
//   head:     GLU (causal) -> position-wise conv -> f_R            (Sec 3.1.5)
//
// Causality in the decoder (no future leakage) is asserted by tests.

#ifndef CAEE_CORE_CAE_H_
#define CAEE_CORE_CAE_H_

#include <memory>
#include <vector>

#include "infer/plan.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv1d.h"
#include "nn/glu.h"
#include "nn/module.h"

namespace caee {
namespace core {

/// \brief Where decoder attention is applied.
enum class AttentionMode {
  kNone,       // ablation: "No attention"
  kLastLayer,  // single attention after the final decoder layer (Fig. 3)
  kAllLayers,  // per-decoder-layer attention (Eq. 7 indexes layers) — default
};

struct CaeConfig {
  int64_t embed_dim = 32;   // D' (paper: 256); 0 = auto-size from the input
                            // dimensionality at Fit time (CaeEnsemble only)
  int64_t num_layers = 3;   // conv layers in encoder and decoder (paper: 10)
  int64_t kernel = 3;       // conv kernel size (paper: 3; Fig. 17 sweeps it)
  AttentionMode attention = AttentionMode::kAllLayers;
  nn::Activation enc_act = nn::Activation::kRelu;   // f_E
  nn::Activation dec_act = nn::Activation::kRelu;   // f_D
  // f_R. Identity: the target X is the linear embedding's output, signed
  // and unbounded, which a ReLU or sigmoid head could not reproduce.
  nn::Activation recon_act = nn::Activation::kIdentity;
};

class Cae : public nn::Module {
 public:
  Cae(const CaeConfig& config, Rng* rng);

  /// \brief Reconstruct an embedded window batch: (B, w, D') -> (B, w, D').
  ag::Var Reconstruct(const ag::Var& x) const;

  /// \brief Compile the graph-free forward plan for this model: the same
  /// layer sequence as Reconstruct with resolved weight pointers, executed
  /// via infer::CaePlan::Execute with bitwise-identical results and no
  /// graph construction (docs/inference.md). The plan borrows this model's
  /// parameter storage — recompile after any weight mutation that
  /// reallocates tensors, and keep the model alive while the plan is used.
  /// `slot_base` is forwarded to the plan's arena slot assignment.
  infer::CaePlan CompilePlan(size_t slot_base) const;

  const CaeConfig& config() const { return config_; }

 private:
  struct EncoderLayer {
    std::unique_ptr<nn::Glu> glu;
    std::unique_ptr<nn::Conv1dLayer> conv;
  };
  struct DecoderLayer {
    std::unique_ptr<nn::Glu> glu;
    std::unique_ptr<nn::Conv1dLayer> conv;
    std::unique_ptr<nn::GlobalAttention> attention;  // null if unused
  };

  CaeConfig config_;
  std::vector<EncoderLayer> encoder_;
  std::vector<DecoderLayer> decoder_;
  std::unique_ptr<nn::Glu> head_glu_;
  std::unique_ptr<nn::Conv1dLayer> head_conv_;  // kernel-1, position-wise
};

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_CAE_H_
