// MSCRED-lite (Zhang et al., AAAI 2019, simplified): instead of the raw
// series, reconstruct multi-scale signature (correlation) matrices between
// channels. Channels are averaged into at most `max_groups` groups so the
// signature stays dense-AE sized on high-dimensional data (WADI: 127 dims);
// the conv-LSTM stack of the original is replaced by a dense autoencoder.
// The defining behaviour — scoring via correlation-structure reconstruction
// error — is preserved. Why a dense autoencoder replaces the conv-LSTM
// stack is not recorded.

#ifndef CAEE_BASELINES_MSCRED_LITE_H_
#define CAEE_BASELINES_MSCRED_LITE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "ts/scaler.h"
#include "ts/time_series.h"

namespace caee {
namespace baselines {

struct MscredConfig {
  std::vector<int64_t> scales = {8, 16, 32};  // signature window lengths
  int64_t max_groups = 16;  // channel groups (D capped for the D x D matrix)
  int64_t hidden = 64;
  int64_t epochs = 15;
  int64_t batch_size = 128;
  float lr = 1e-3f;
  int64_t max_train = 2048;  // signature subsample cap
  int64_t stride = 1;        // signature stride during training
  uint64_t seed = 53;
};

class MscredLite {
 public:
  explicit MscredLite(const MscredConfig& config = {});
  ~MscredLite();

  Status Fit(const ts::TimeSeries& train);

  /// \brief Per-observation score = reconstruction error of the signature
  /// matrices ending at that observation.
  StatusOr<std::vector<double>> Score(const ts::TimeSeries& series) const;

  double train_seconds() const { return train_seconds_; }
  int64_t feature_size() const { return feature_size_; }

 private:
  struct Net;

  /// \brief Upper-triangle correlation features at time t (expanding window
  /// near the series head).
  std::vector<float> Signature(const ts::TimeSeries& scaled, int64_t t) const;

  MscredConfig config_;
  ts::Scaler scaler_;
  int64_t groups_ = 0;
  int64_t feature_size_ = 0;
  std::vector<int64_t> group_of_dim_;
  std::unique_ptr<Net> net_;
  double train_seconds_ = 0.0;
};

}  // namespace baselines
}  // namespace caee

#endif  // CAEE_BASELINES_MSCRED_LITE_H_
