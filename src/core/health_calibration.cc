// CalibrateHealthRef over a series (core/health.h). It scores through the
// ensemble, so it lives apart from health.cc: a binary that only reads and
// checks references (caee_serve) links health.cc without this code.

#include <algorithm>
#include <cstring>
#include <string>

#include "core/ensemble.h"
#include "core/health.h"
#include "ts/time_series.h"

namespace caee {
namespace core {

StatusOr<HealthRef> CalibrateHealthRef(const CaeEnsemble& ensemble,
                                       const ts::TimeSeries& series) {
  const int64_t w = ensemble.config().window;
  const int64_t dims = series.dims();
  if (dims != ensemble.input_dim()) {
    return Status::InvalidArgument(
        "health calibration series has " + std::to_string(dims) +
        " dims but the ensemble takes " +
        std::to_string(ensemble.input_dim()));
  }
  if (series.length() < w) {
    return Status::InvalidArgument(
        "health calibration series is shorter than the window");
  }
  // Window i is rows [i, i + w), contiguous in the row-major series.
  const int64_t num_windows = series.length() - w + 1;
  const int64_t chunk = 256;
  const size_t window_floats = static_cast<size_t>(w * dims);
  std::vector<float> buffer(
      static_cast<size_t>(std::min(chunk, num_windows)) * window_floats);
  std::vector<double> scores, dispersions;
  std::vector<double> chunk_scores, chunk_dispersions;
  scores.reserve(static_cast<size_t>(num_windows));
  dispersions.reserve(static_cast<size_t>(num_windows));
  for (int64_t start = 0; start < num_windows; start += chunk) {
    const int64_t n = std::min(chunk, num_windows - start);
    for (int64_t b = 0; b < n; ++b) {
      std::memcpy(buffer.data() + static_cast<size_t>(b) * window_floats,
                  series.row(start + b), window_floats * sizeof(float));
    }
    CAEE_RETURN_NOT_OK(ensemble.ScoreWindowsLastInto(
        buffer.data(), n, &chunk_scores, &chunk_dispersions));
    scores.insert(scores.end(), chunk_scores.begin(), chunk_scores.end());
    dispersions.insert(dispersions.end(), chunk_dispersions.begin(),
                       chunk_dispersions.end());
  }
  return CalibrateHealthRef(scores, dispersions);
}

}  // namespace core
}  // namespace caee
