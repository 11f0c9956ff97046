// OmniAnomaly-lite (Su et al., KDD 2019, simplified): GRU encoder with a
// per-timestep stochastic Gaussian latent variable (reparameterised), GRU
// decoder, ELBO-style training. The planar normalizing flows and linear
// Gaussian state-space prior of the original are omitted — the defining
// behaviour exercised by the paper's comparison (temporal stochastic latent
// modelling with reconstruction-based scoring) is preserved. Why the flows
// and the state-space prior were left out is not recorded.

#ifndef CAEE_BASELINES_OMNI_ANOMALY_LITE_H_
#define CAEE_BASELINES_OMNI_ANOMALY_LITE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "ts/scaler.h"
#include "ts/time_series.h"

namespace caee {
namespace baselines {

struct OmniAnomalyConfig {
  int64_t window = 16;
  int64_t hidden = 32;   // paper: 32
  int64_t latent = 16;   // paper: 16 stochastic variables
  int64_t epochs = 8;
  int64_t batch_size = 64;
  float lr = 1e-3f;
  float kl_weight = 1e-4f;  // paper: regularization 0.0001
  float grad_clip = 5.0f;
  int64_t max_train_windows = 512;
  uint64_t seed = 47;
};

class OmniAnomalyLite {
 public:
  explicit OmniAnomalyLite(const OmniAnomalyConfig& config = {});
  ~OmniAnomalyLite();

  Status Fit(const ts::TimeSeries& train);
  StatusOr<std::vector<double>> Score(const ts::TimeSeries& series) const;

  double train_seconds() const { return train_seconds_; }

 private:
  struct Net;

  std::vector<std::vector<double>> WindowErrors(const Tensor& batch) const;

  OmniAnomalyConfig config_;
  ts::Scaler scaler_;
  std::unique_ptr<Net> net_;
  double train_seconds_ = 0.0;
};

}  // namespace baselines
}  // namespace caee

#endif  // CAEE_BASELINES_OMNI_ANOMALY_LITE_H_
