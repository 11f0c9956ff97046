// Unsupervised hyperparameter selection (paper Sec. 3.3, Algorithm 2).
//
// Phase 1: random search over (w, β, λ) combinations; the combination with
// the MEDIAN validation reconstruction error becomes the default triple.
// Phase 2: for each hyperparameter in turn, sweep its full range with the
// other two fixed at their defaults and again pick the median-error value.
// No ground-truth labels are consulted anywhere.

#ifndef CAEE_CORE_HYPERPARAMETER_H_
#define CAEE_CORE_HYPERPARAMETER_H_

#include <vector>

#include "core/ensemble.h"

namespace caee {
namespace core {

struct HyperparameterRanges {
  // Paper: w = 2^k, k in [2, 8]; β = i/10, i in [1, 9]; λ = 2^j, j in [0, 6].
  // The λ grid below is the paper's 7-point geometric grid rescaled into
  // (0, 1): J and K are both MSEs here, so J − λ·K is unbounded below once
  // λ >= 1 (EnsembleConfig::diversity_cap_ratio).
  std::vector<int64_t> windows = {4, 8, 16, 32, 64, 128, 256};
  std::vector<float> betas = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f,
                              0.6f, 0.7f, 0.8f, 0.9f};
  std::vector<float> lambdas = {0.0125f, 0.025f, 0.05f, 0.1f,
                                0.2f,    0.4f,   0.8f};
};

/// \brief One evaluated hyperparameter combination.
struct CandidateResult {
  int64_t window = 0;
  float beta = 0.0f;
  float lambda = 0.0f;
  double recon_error = 0.0;
};

struct SelectionResult {
  int64_t window = 0;
  float beta = 0.0f;
  float lambda = 0.0f;
  CandidateResult defaults;                   // phase-1 median combination
  std::vector<CandidateResult> random_search; // phase-1 trace
  std::vector<CandidateResult> window_sweep;  // phase-2 traces (Figs. 14-15)
  std::vector<CandidateResult> beta_sweep;
  std::vector<CandidateResult> lambda_sweep;
};

struct SelectorConfig {
  /// Proxy-ensemble configuration; its window/beta/lambda fields are
  /// overridden per candidate. Keep it small: Algorithm 2 trains one
  /// ensemble per evaluated combination.
  EnsembleConfig base;
  HyperparameterRanges ranges;
  int64_t random_search_trials = 8;
  double val_fraction = 0.3;  // paper reserves 30% of training for validation
  uint64_t seed = 11;
};

class HyperparameterSelector {
 public:
  explicit HyperparameterSelector(SelectorConfig config);

  /// \brief Run Algorithm 2 on an unlabeled series.
  StatusOr<SelectionResult> Select(const ts::TimeSeries& series);

 private:
  StatusOr<double> EvaluateCombination(const ts::TimeSeries& train,
                                       const ts::TimeSeries& val,
                                       int64_t window, float beta,
                                       float lambda, uint64_t seed);

  SelectorConfig config_;
};

/// \brief Index of the median-error candidate ((n-1)/2 of the sorted order).
size_t ArgMedianByError(const std::vector<CandidateResult>& candidates);

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_HYPERPARAMETER_H_
