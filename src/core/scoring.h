// Window-to-observation score assembly (paper Sec. 4.1.4, Fig. 10) and the
// median ensemble aggregation (Eq. 15).
//
// Windows slide by one observation. The first window contributes a
// reconstruction error for each of its w observations; every later window
// contributes only its last observation. An ensemble produces one such score
// stream per basic model; the final score per observation is the median
// across models.

#ifndef CAEE_CORE_SCORING_H_
#define CAEE_CORE_SCORING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace caee {
namespace core {

/// \brief Per-observation squared L2 reconstruction errors of one window
/// batch: errors[b][t] = ||x[b,t,:] - recon[b,t,:]||_2^2.
std::vector<std::vector<double>> WindowErrors(const Tensor& x,
                                              const Tensor& recon);

/// \brief Last-position errors only, over raw (b, w, d) row-major
/// activation buffers (out holds b doubles):
/// out[b] = ||x[b,w-1,:] - recon[b,w-1,:]||², with the same ascending-j
/// double-precision accumulation as WindowErrors, so out[b] is bitwise
/// equal to WindowErrors(x, recon)[b].back() (see
/// docs/numeric-contract.md). This is the batched online-serving hot path:
/// every window past the first contributes only its last observation
/// (Fig. 10), so scoring B ready windows needs B row reductions, not B*w.
/// No allocation.
void LastPositionErrorsRaw(const float* x, const float* recon, int64_t b,
                           int64_t w, int64_t d, double* out);

/// \brief Assembles per-observation scores for one model (Fig. 10 policy).
class WindowScoreAssembler {
 public:
  /// \brief num_windows windows of size `window` over a series of
  /// num_windows + window - 1 observations.
  WindowScoreAssembler(int64_t num_windows, int64_t window);

  /// \brief Record the errors of window `window_index`; `errors` holds one
  /// value per in-window position (size == window).
  void AddWindow(int64_t window_index, const std::vector<double>& errors);

  /// \brief Record only the last-position error for window `window_index`
  /// (cheap path when the caller already extracted it).
  void AddLastError(int64_t window_index, double error);

  /// \brief Per-observation scores; requires every window to have been added.
  std::vector<double> Finalize() const;

  int64_t num_observations() const { return num_windows_ + window_ - 1; }

 private:
  int64_t num_windows_;
  int64_t window_;
  std::vector<double> scores_;
  std::vector<uint8_t> filled_;
};

/// \brief Eq. 15: element-wise median across the per-model score streams.
std::vector<double> MedianAcrossModels(
    const std::vector<std::vector<double>>& per_model_scores);

/// \brief Median of a small vector (copies; average of middle pair for even
/// sizes — reduces to the classic midpoint definition).
double Median(std::vector<double> values);

/// \brief Same median over a caller-owned buffer, which is PERMUTED in
/// place (nth_element) — the allocation-free form the serving hot path
/// uses. Identical selection algorithm, hence identical result bits.
double MedianInPlace(double* values, size_t n);

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_SCORING_H_
