// Streaming Peaks-Over-Threshold (SPOT) thresholds: the "automatic
// threshold from streamed scores" stage the paper's release ships as
// ParallelSpot.py (SNIPPETS.md), reproduced as a constant-memory online
// policy the serve layer can keep per stream.
//
// Extreme-value theory in one paragraph: fix a high "peaks threshold" t
// (a quantile of calibration scores). Excesses over t follow a
// Generalized Pareto Distribution (GPD) for a wide class of score
// distributions (Pickands–Balkema–de Haan); fitting the GPD's shape
// gamma and scale sigma to the observed excesses gives the alert
// threshold at tail probability q:
//
//   z_q = t + (sigma / gamma) * ((q * n / N_t)^(-gamma) - 1)   gamma != 0
//   z_q = t - sigma * ln(q * n / N_t)                          gamma == 0
//
// where n counts observations folded into the fit and N_t counts
// excesses over t. The fit here is method-of-moments over a FIXED
// capacity ring of the most recent excesses (mean m, variance v ->
// gamma = (1 - m^2/v) / 2, sigma = m * (1 + m^2/v) / 2), so per-stream
// state is a few scalars plus peak_capacity doubles: constant memory,
// zero steady-state allocation, and the windowed fit is what lets z
// track slow drift in the score distribution.
//
// Determinism contract (docs/thresholds.md): the update is a pure
// function of (init params, prior tail state, score), applied once per
// scored window in per-stream arrival order. Shard count, batch
// composition, flush timing, and thread count never change a stream's
// observation order, so SPOT verdicts are bitwise identical across all
// of them — the same argument that covers the scores themselves.
//
// Update semantics per score s (SpotObserve):
//   - s not finite  -> verdict true (a NaN must never pass silently —
//                      docs/thresholds.md), state untouched;
//   - s > z         -> verdict true; alerts are EXCLUDED from the fit
//                      (standard SPOT: an anomaly must not teach the
//                      threshold to tolerate anomalies);
//   - t < s <= z    -> verdict false; the excess s - t enters the peak
//                      ring (evicting the oldest when full) and z is
//                      refit;
//   - s <= t        -> verdict false; only n advances.

#ifndef CAEE_CORE_SPOT_H_
#define CAEE_CORE_SPOT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace caee {
namespace core {

/// \brief Fewest buffered excesses the GPD refit needs; below this the
/// calibrated z holds. Also the floor on SpotConfig::peak_capacity.
inline constexpr uint32_t kSpotMinPeaks = 8;
/// \brief Ceiling on SpotConfig::peak_capacity (also bounds what a
/// persisted artifact section may claim — docs/persistence.md).
inline constexpr int64_t kSpotMaxPeaks = 65536;

/// \brief SPOT policy knobs, fixed at calibration time and persisted in
/// the artifact's spot section.
struct SpotConfig {
  /// Target tail probability: the alert threshold z aims at
  /// P(score > z) = q. Must be in (0, 1) and below 1 - level.
  double q = 1e-3;
  /// Calibration quantile for the peaks threshold t (nearest-rank over
  /// the reference scores). Must be in (0, 1).
  double level = 0.98;
  /// Excesses kept per stream for the windowed tail fit. Bounds both the
  /// per-stream memory (capacity doubles) and how fast the fit forgets.
  int64_t peak_capacity = 64;
};

/// \brief Everything a serving process needs to start per-stream SPOT
/// state: the calibration summary CalibrateSpot distils from reference
/// scores. Persisted as the artifact's optional spot section.
struct SpotInit {
  SpotConfig config;
  double t = 0.0;            // peaks threshold (level quantile of reference)
  double z = 0.0;            // initial alert threshold from the full-sample fit
  int64_t n = 0;             // reference observations folded into the fit
  int64_t peaks_total = 0;   // total reference excesses over t
  /// The last min(peak_capacity, peaks_total) reference excesses, oldest
  /// first — seeding the ring with them makes the first online refits
  /// continue the calibration fit instead of restarting from nothing.
  std::vector<double> peaks;
};

/// \brief Per-stream SPOT cursor record. Like serve's PackedSession it is
/// a flat POD the shard packs into a slot-parallel array; the peak ring
/// payload lives in a separate contiguous slab (peak_capacity doubles per
/// slot). 48 bytes per stream beyond the ring.
struct SpotTail {
  double z = 0.0;           // current alert threshold
  double sum = 0.0;         // running sum of buffered excesses
  double sumsq = 0.0;       // running sum of squared buffered excesses
  int64_t n = 0;            // observations folded into the fit (calib + live)
  int64_t peaks_total = 0;  // lifetime excesses over t (calib + live)
  uint32_t count = 0;       // buffered excesses, saturates at peak_capacity
  uint32_t head = 0;        // ring slot the NEXT excess lands in
};

/// \brief Calibrate SPOT init params from reference scores (typically the
/// training scores the static threshold calibrates on). Fails with
/// InvalidArgument on bad knobs, non-finite scores, or a reference sample
/// with fewer than kSpotMinPeaks excesses over the level quantile (raise
/// the sample size or lower `level`).
StatusOr<SpotInit> CalibrateSpot(const std::vector<double>& reference_scores,
                                 const SpotConfig& config);

/// \brief Validate a SpotInit (artifact bytes are untrusted): knob ranges,
/// finite t/z with z >= t, consistent counts, finite non-negative seed
/// peaks no more numerous than the capacity.
Status ValidateSpotInit(const SpotInit& init);

/// \brief Reset `tail` and the caller-owned ring `peaks` (at least
/// init.config.peak_capacity doubles) to the calibrated starting state.
/// Deterministic: the seeded sums are accumulated in seed order.
void SpotSeedTail(const SpotInit& init, SpotTail* tail, double* peaks);

/// \brief Fold one score into a stream's tail state and return the
/// verdict (see the file comment for the four cases). `peaks` is the
/// stream's ring slab slot. Touches only *tail and the ring — safe to run
/// on packed per-shard state under the shard's lock.
bool SpotObserve(const SpotInit& init, SpotTail* tail, double* peaks,
                 double score);

/// \brief Per-stream bytes of SPOT state (cursor record + peak ring), the
/// number docs/capacity.md budgets.
inline size_t SpotBytesPerStream(const SpotConfig& config) {
  return sizeof(SpotTail) +
         static_cast<size_t>(config.peak_capacity) * sizeof(double);
}

/// \brief Owning single-stream SPOT state: the serve layer's packed slabs
/// reduce to this, and the serve tests use it as the sequential reference
/// SPOT verdicts must match bitwise.
class SpotState {
 public:
  /// \brief `init` must pass ValidateSpotInit (CHECKed — init params are
  /// loader-validated artifact state, not tenant input).
  explicit SpotState(const SpotInit& init);

  /// \brief Fold one score; returns the verdict.
  bool Observe(double score) {
    return SpotObserve(init_, &tail_, peaks_.data(), score);
  }

  /// \brief Current alert threshold z.
  double threshold() const { return tail_.z; }
  const SpotTail& tail() const { return tail_; }
  const SpotInit& init() const { return init_; }

 private:
  SpotInit init_;
  SpotTail tail_;
  std::vector<double> peaks_;
};

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_SPOT_H_
