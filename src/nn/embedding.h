// Window embedding (paper Sec. 3.1.1): observation embedding
//   v_t = f_s(W_v s_t + b_v)
// plus position embedding
//   p_t = f_t(W_p t + b_p)
// summed into the convolutional input x_t = v_t + p_t. Positions are fed as
// normalised scalars t/w (t = 1..w): a raw index would grow with the window
// (up to 256 on the hyperparameter grid) and swamp the z-scored
// observations in the sum, while t/w stays in (0, 1] at any w.

#ifndef CAEE_NN_EMBEDDING_H_
#define CAEE_NN_EMBEDDING_H_

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace caee {
namespace nn {

class WindowEmbedding : public Module {
 public:
  WindowEmbedding(int64_t input_dim, int64_t embed_dim, int64_t window,
                  Rng* rng, Activation obs_act = Activation::kRelu,
                  Activation pos_act = Activation::kRelu);

  /// \brief s (B, w, D) -> embedded x (B, w, D').
  ag::Var Forward(const ag::Var& s) const;

  int64_t input_dim() const { return input_dim_; }
  int64_t embed_dim() const { return embed_dim_; }
  int64_t window() const { return window_; }

  /// \brief Branch internals, exposed so the inference plan compiler
  /// (infer/plan.h) can pre-pack the observation projection and
  /// constant-fold the position branch.
  const Linear& obs() const { return obs_; }
  const Linear& pos() const { return pos_; }
  const Tensor& positions() const { return positions_; }
  Activation obs_act() const { return obs_act_; }
  Activation pos_act() const { return pos_act_; }

 private:
  int64_t input_dim_;
  int64_t embed_dim_;
  int64_t window_;
  Activation obs_act_;
  Activation pos_act_;
  Linear obs_;
  Linear pos_;
  Tensor positions_;  // (w, 1) constant
};

}  // namespace nn
}  // namespace caee

#endif  // CAEE_NN_EMBEDDING_H_
