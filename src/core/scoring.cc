#include "core/scoring.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace caee {
namespace core {

std::vector<std::vector<double>> WindowErrors(const Tensor& x,
                                              const Tensor& recon) {
  CAEE_CHECK_MSG(x.rank() == 3, "WindowErrors expects (B,w,D)");
  const std::vector<double> per_position =
      ops::SquaredErrorPerPosition(x, recon);
  const int64_t b = x.dim(0), w = x.dim(1);
  std::vector<std::vector<double>> errors(static_cast<size_t>(b));
  for (int64_t bb = 0; bb < b; ++bb) {
    const double* src = per_position.data() + bb * w;
    errors[static_cast<size_t>(bb)].assign(src, src + w);
  }
  return errors;
}

void LastPositionErrorsRaw(const float* x, const float* recon, int64_t b,
                           int64_t w, int64_t d, double* out) {
  for (int64_t bb = 0; bb < b; ++bb) {
    // Identical accumulation to ops::SquaredErrorPerPosition's row loop
    // (ascending j, double accumulator) — the bitwise contract with
    // WindowErrors depends on it.
    const float* xr = x + (bb * w + (w - 1)) * d;
    const float* rr = recon + (bb * w + (w - 1)) * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double diff = static_cast<double>(xr[j]) - rr[j];
      acc += diff * diff;
    }
    out[bb] = acc;
  }
}

WindowScoreAssembler::WindowScoreAssembler(int64_t num_windows, int64_t window)
    : num_windows_(num_windows), window_(window) {
  CAEE_CHECK_MSG(num_windows >= 1 && window >= 1,
                 "need at least one window and positive window size");
  scores_.assign(static_cast<size_t>(num_observations()), 0.0);
  filled_.assign(static_cast<size_t>(num_observations()), 0);
}

void WindowScoreAssembler::AddWindow(int64_t window_index,
                                     const std::vector<double>& errors) {
  CAEE_CHECK_MSG(window_index >= 0 && window_index < num_windows_,
                 "window index out of range");
  CAEE_CHECK_MSG(static_cast<int64_t>(errors.size()) == window_,
                 "errors size must equal window size");
  if (window_index == 0) {
    // First window: all observations (Fig. 10).
    for (int64_t t = 0; t < window_; ++t) {
      scores_[static_cast<size_t>(t)] = errors[static_cast<size_t>(t)];
      filled_[static_cast<size_t>(t)] = 1;
    }
  } else {
    const int64_t obs = window_index + window_ - 1;
    scores_[static_cast<size_t>(obs)] = errors[static_cast<size_t>(window_ - 1)];
    filled_[static_cast<size_t>(obs)] = 1;
  }
}

void WindowScoreAssembler::AddLastError(int64_t window_index, double error) {
  CAEE_CHECK_MSG(window_index >= 1 && window_index < num_windows_,
                 "AddLastError applies to windows after the first");
  const int64_t obs = window_index + window_ - 1;
  scores_[static_cast<size_t>(obs)] = error;
  filled_[static_cast<size_t>(obs)] = 1;
}

std::vector<double> WindowScoreAssembler::Finalize() const {
  for (size_t i = 0; i < filled_.size(); ++i) {
    CAEE_CHECK_MSG(filled_[i], "observation " << i << " never scored");
  }
  return scores_;
}

double Median(std::vector<double> values) {
  CAEE_CHECK_MSG(!values.empty(), "median of empty vector");
  return MedianInPlace(values.data(), values.size());
}

double MedianInPlace(double* values, size_t n) {
  CAEE_CHECK_MSG(n > 0, "median of empty buffer");
  const size_t mid = n / 2;
  std::nth_element(values, values + mid, values + n);
  const double upper = values[mid];
  if (n % 2 == 1) return upper;
  const double lower = *std::max_element(values, values + mid);
  return 0.5 * (lower + upper);
}

std::vector<double> MedianAcrossModels(
    const std::vector<std::vector<double>>& per_model_scores) {
  CAEE_CHECK_MSG(!per_model_scores.empty(), "no model scores");
  const size_t n = per_model_scores.front().size();
  for (const auto& s : per_model_scores) {
    CAEE_CHECK_MSG(s.size() == n, "model score streams differ in length");
  }
  // Each observation's median is independent work writing its own slot, so
  // the aggregation parallelises without changing results.
  std::vector<double> out(n);
  ParallelForRange(
      n,
      [&](size_t begin, size_t end) {
        std::vector<double> column(per_model_scores.size());
        for (size_t i = begin; i < end; ++i) {
          for (size_t m = 0; m < per_model_scores.size(); ++m) {
            column[m] = per_model_scores[m][i];
          }
          out[i] = Median(column);
        }
      },
      /*min_chunk=*/512);
  return out;
}

}  // namespace core
}  // namespace caee
