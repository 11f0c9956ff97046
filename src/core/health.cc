#include "core/health.h"

#include <algorithm>
#include <cmath>

namespace caee {
namespace core {

StatusOr<HealthRef> CalibrateHealthRef(
    const std::vector<double>& scores,
    const std::vector<double>& dispersions) {
  if (static_cast<int64_t>(scores.size()) < kHealthMinScores) {
    return Status::InvalidArgument(
        "health calibration needs at least " +
        std::to_string(kHealthMinScores) + " reference scores, got " +
        std::to_string(scores.size()));
  }
  if (dispersions.size() != scores.size()) {
    return Status::InvalidArgument(
        "health calibration got " + std::to_string(scores.size()) +
        " scores but " + std::to_string(dispersions.size()) +
        " dispersions — they must align one-to-one");
  }

  HealthRef ref;
  ref.count = static_cast<int64_t>(scores.size());
  ref.min = scores[0];
  ref.max = scores[0];
  double sum = 0.0, sumsq = 0.0, disp_sum = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const double s = scores[i];
    const double d = dispersions[i];
    if (!std::isfinite(s) || !std::isfinite(d) || d < 0.0) {
      return Status::InvalidArgument(
          "health calibration input has a non-finite score or a "
          "non-finite/negative dispersion at index " + std::to_string(i));
    }
    ref.min = std::min(ref.min, s);
    ref.max = std::max(ref.max, s);
    sum += s;
    sumsq += s * s;
    disp_sum += d;
  }
  if (!(ref.max > ref.min)) {
    return Status::InvalidArgument(
        "health calibration scores are constant — a zero-width histogram "
        "cannot serve as a shift baseline");
  }
  const double n = static_cast<double>(ref.count);
  ref.mean = sum / n;
  ref.stddev = std::sqrt(std::max(0.0, sumsq / n - ref.mean * ref.mean));
  ref.mean_dispersion = disp_sum / n;

  ref.bins.assign(static_cast<size_t>(kHealthBins), 0.0);
  for (const double s : scores) {
    ref.bins[static_cast<size_t>(HealthBinIndex(ref, s))] += 1.0;
  }
  for (double& b : ref.bins) b /= n;
  return ref;
}

Status ValidateHealthRef(const HealthRef& ref) {
  if (ref.count < kHealthMinScores) {
    return Status::InvalidArgument(
        "health reference claims only " + std::to_string(ref.count) +
        " calibration scores (minimum " + std::to_string(kHealthMinScores) +
        ")");
  }
  if (!std::isfinite(ref.min) || !std::isfinite(ref.max) ||
      !(ref.max > ref.min)) {
    return Status::InvalidArgument(
        "health reference histogram range is non-finite or empty");
  }
  if (!std::isfinite(ref.mean) || !std::isfinite(ref.stddev) ||
      ref.stddev < 0.0) {
    return Status::InvalidArgument(
        "health reference summary stats are non-finite or negative");
  }
  if (!std::isfinite(ref.mean_dispersion) || ref.mean_dispersion < 0.0) {
    return Status::InvalidArgument(
        "health reference mean dispersion is non-finite or negative");
  }
  if (static_cast<int64_t>(ref.bins.size()) != kHealthBins) {
    return Status::InvalidArgument(
        "health reference has " + std::to_string(ref.bins.size()) +
        " histogram bins; this build expects exactly " +
        std::to_string(kHealthBins));
  }
  double mass = 0.0;
  for (const double b : ref.bins) {
    if (!std::isfinite(b) || b < 0.0 || b > 1.0) {
      return Status::InvalidArgument(
          "health reference histogram bin outside [0, 1]");
    }
    mass += b;
  }
  if (std::fabs(mass - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        "health reference histogram mass is " + std::to_string(mass) +
        ", expected 1");
  }
  return Status::OK();
}

int64_t HealthBinIndex(const HealthRef& ref, double score) {
  const double width = (ref.max - ref.min) / static_cast<double>(kHealthBins);
  if (!(score > ref.min)) return 0;
  // Clamp before the cast: far past the range the quotient overflows
  // int64, and converting it would be undefined behaviour.
  const double bin = (score - ref.min) / width;
  return bin < kHealthBins - 1 ? static_cast<int64_t>(bin) : kHealthBins - 1;
}

double HealthTotalVariation(const HealthRef& ref, const int64_t* counts,
                            int64_t total) {
  if (total <= 0) return 0.0;
  const double n = static_cast<double>(total);
  double tv = 0.0;
  for (int64_t i = 0; i < kHealthBins; ++i) {
    const double live = static_cast<double>(counts[i]) / n;
    tv += std::fabs(live - ref.bins[static_cast<size_t>(i)]);
  }
  return 0.5 * tv;
}

}  // namespace core
}  // namespace caee
