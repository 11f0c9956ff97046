// Label-free model-health calibration reference (docs/operations.md).
//
// The serve layer's HealthMonitor judges the LIVE generation without
// labels by comparing four streaming statistics against what the model
// looked like on its own training data:
//
//   - score-distribution shift: total-variation distance between the
//     recent score histogram and the training-score histogram below;
//   - member-agreement collapse: mean per-window dispersion of the
//     per-member scores around their median vs the training mean
//     (diversity-driven ensembles agree on normal data — Eq. 15's median
//     is meaningful exactly because members disagree mostly on outliers);
//   - non-finite rate and alert rate (no reference needed).
//
// This header owns the reference half: a HealthRef is distilled from the
// training scores by caee_train --health (and again from the repaired
// series by caee_repair, when the input artifact carries one), persisted
// as the artifact's optional health section (validated like SPOT's —
// docs/persistence.md), and consumed by serve::HealthMonitor and the
// canary phase of ServingEngine::ReloadArtifact.
//
// Binning contract: bin i of `bins` covers
//   [min + i·width, min + (i+1)·width),  width = (max − min) / kHealthBins,
// scores below min clamp to bin 0, scores at or above max clamp to the
// last bin (the tails are exactly what shift detection must not drop).
// HealthBinIndex is the single shared implementation — calibration, the
// serve-side ring, and the canary all bin through it, so the live and
// reference histograms are always comparable.

#ifndef CAEE_CORE_HEALTH_H_
#define CAEE_CORE_HEALTH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace caee {
namespace ts {
class TimeSeries;
}  // namespace ts

namespace core {

class CaeEnsemble;

/// \brief Histogram resolution of the persisted reference. Fixed — the
/// serve-side ring aggregates into the same number of buckets, and the
/// persisted section stores exactly this many fractions.
inline constexpr int64_t kHealthBins = 32;

/// \brief Fewest reference scores CalibrateHealthRef accepts: below this
/// the histogram is too sparse to be a shift baseline.
inline constexpr int64_t kHealthMinScores = 64;

/// \brief Everything the serve layer needs to judge live scores against
/// the training distribution. Persisted as the artifact's optional health
/// section; artifact bytes are untrusted, so loaders run ValidateHealthRef.
struct HealthRef {
  int64_t count = 0;       // reference scores folded into the histogram
  double min = 0.0;        // histogram range: [min, max), max > min
  double max = 0.0;
  double mean = 0.0;       // summary stats of the reference scores
  double stddev = 0.0;
  /// Mean per-window member dispersion on the training data (relative
  /// median absolute deviation around the member median; see
  /// CaeEnsemble::ScoreWindowsLastInto's dispersion overload). The
  /// monitor alarms on the live/ref ratio, so this is the denominator.
  double mean_dispersion = 0.0;
  /// kHealthBins fractions in [0, 1] summing to ~1 (the reference
  /// probability mass per bucket).
  std::vector<double> bins;
};

/// \brief Distil a HealthRef from reference scores (the training scores,
/// same sample SPOT and the static threshold calibrate on) and the
/// per-window member dispersions aligned with them. Fails with
/// InvalidArgument on fewer than kHealthMinScores scores, non-finite
/// values, mismatched lengths, or a degenerate (constant) score sample.
StatusOr<HealthRef> CalibrateHealthRef(const std::vector<double>& scores,
                                       const std::vector<double>& dispersions);

/// \brief Distil a HealthRef for `ensemble` from `series` (the training
/// series in caee_train, the repaired series in caee_repair). The
/// reference must describe exactly what serving will measure, so every
/// full window of `series` is scored through the entry point the serving
/// shards use, ScoreWindowsLastInto over raw windows, not the batch
/// Score() path. Windows are scored in chunks, so memory stays bounded on
/// long series. Fails like the overload above, and on a series shorter
/// than the window or of the wrong width.
StatusOr<HealthRef> CalibrateHealthRef(const CaeEnsemble& ensemble,
                                       const ts::TimeSeries& series);

/// \brief Validate a HealthRef (artifact bytes are untrusted): finite
/// stats, max > min, stddev/mean_dispersion >= 0, exactly kHealthBins
/// fractions in [0, 1] summing to ~1, count >= kHealthMinScores.
Status ValidateHealthRef(const HealthRef& ref);

/// \brief Bucket of `score` under `ref`'s binning contract (clamped to
/// [0, kHealthBins)). `ref` must have max > min. Non-finite scores are the
/// caller's problem — the serve ring tracks them separately.
int64_t HealthBinIndex(const HealthRef& ref, double score);

/// \brief Total-variation distance 0.5·Σ|p_i − q_i| between the reference
/// mass and a live histogram of `counts[0..kHealthBins)` summing to
/// `total` (> 0). In [0, 1]: 0 = identical distributions, 1 = disjoint.
double HealthTotalVariation(const HealthRef& ref, const int64_t* counts,
                            int64_t total);

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_HEALTH_H_
