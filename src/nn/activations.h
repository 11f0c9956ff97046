// Configurable activation slots (the paper leaves f_s, f_t, f_E, f_D, f_R as
// unspecified non-linearities). Each default is set, with its reason, where
// it is configured: f_s and f_t in core::EnsembleConfig, f_E, f_D and f_R
// in core::CaeConfig. No reason is recorded for ReLU in f_E and f_D.

#ifndef CAEE_NN_ACTIVATIONS_H_
#define CAEE_NN_ACTIVATIONS_H_

#include <string>

#include "autograd/ops.h"

namespace caee {
namespace nn {

enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// \brief Apply the selected activation as a graph op.
ag::Var Apply(Activation act, const ag::Var& x);

std::string ActivationName(Activation act);

}  // namespace nn
}  // namespace caee

#endif  // CAEE_NN_ACTIVATIONS_H_
