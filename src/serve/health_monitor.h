// Engine-level escalation of the label-free serving signals
// (docs/operations.md).
//
// HealthMonitor judges five statistics the shards maintain, and answers two
// questions without labels: has the DATA moved away from the calibration,
// and has the MODEL gone bad? Four signals are the model-health gauges,
// computed over a ring of recent scores against the artifact's persisted
// calibration reference (core::HealthRef); the fifth is the SPOT drift:
//
//   kScoreShift     total-variation distance between the live score
//                   histogram and the training-score histogram;
//   kDispersion     live / reference ratio of the mean per-window member
//                   dispersion (diversity-driven members agree on normal
//                   data; when they stop agreeing everywhere, the ensemble
//                   itself — not the data — has degraded);
//   kNonFiniteRate  fraction of non-finite scores (a healthy model never
//                   produces them);
//   kAlertRate      fraction of flagged verdicts (alert runaway);
//   kDrift          |observed SPOT exceed rate - (1 - level)| over the
//                   shards' drift rings (docs/thresholds.md).
//
// The four health signals are on with HealthConfig::enabled; drift is on
// with ServeConfig::drift_threshold > 0, independently of health. Every
// signal is judged over its own window and has its own hysteresis: fire
// once per excursion, disarm, re-arm strictly below its clear level. An
// excursion is CLASSIFIED: non-finite scores and member-agreement collapse
// can only come from the model (kModelDegradation — the rollback
// escalation); score shift, alert runaway and drift alone are
// indistinguishable from the data moving (kDataDrift — the repair
// advisory).
//
// The monitor is pure policy over one EngineStats snapshot; the engine
// owns the gauges (shard rings), the probation window, and the rollback
// itself (ServingEngine::PollHealth).

#ifndef CAEE_SERVE_HEALTH_MONITOR_H_
#define CAEE_SERVE_HEALTH_MONITOR_H_

#include <cstdint>
#include <optional>

#include "serve/shard.h"

namespace caee {
namespace serve {

enum class HealthSignal {
  kScoreShift = 0,
  kDispersion = 1,
  kNonFiniteRate = 2,
  kAlertRate = 3,
  kDrift = 4,
};
inline constexpr int kNumHealthSignals = 5;

enum class HealthVerdict {
  kHealthy = 0,
  /// The data moved; the model may still be fine. Escalates to a repair
  /// advisory, never a rollback.
  kDataDrift = 1,
  /// The model itself is misbehaving. During probation this verdict
  /// triggers automatic rollback to the last-known-good generation.
  kModelDegradation = 2,
};

const char* HealthSignalName(HealthSignal signal);
const char* HealthVerdictName(HealthVerdict verdict);

/// \brief Which verdict an excursion of `signal` is classified as (the
/// signal -> verdict mapping in the file comment).
HealthVerdict ClassifyHealthSignal(HealthSignal signal);

/// \brief Model-health knobs (ServeConfig::health). The thresholds are
/// deliberately loose by default — a health FIRING is an operator-visible
/// incident (and during probation a rollback), so the defaults aim at
/// "unambiguously broken", not "statistically interesting".
struct HealthConfig {
  /// Master switch of the four model-health signals. Off (the default):
  /// no health rings, no canary buffer, no probation — byte-for-byte the
  /// pre-health engine behavior. The drift signal does not depend on it.
  bool enabled = false;
  /// Fire kScoreShift when the TV distance exceeds this.
  double shift_threshold = 0.35;
  /// Fire kDispersion when live/reference mean dispersion exceeds this.
  double dispersion_threshold = 4.0;
  /// Fire kNonFiniteRate when the non-finite fraction exceeds this.
  double non_finite_threshold = 0.01;
  /// Fire kAlertRate when the flagged fraction exceeds this.
  double alert_threshold = 0.5;
  /// Per-signal re-arm levels; <= 0 means half the matching threshold.
  double shift_clear = 0.0;
  double dispersion_clear = 0.0;
  double non_finite_clear = 0.0;
  double alert_clear = 0.0;
  /// Minimum scores behind a signal's own window before that signal is
  /// trusted (a near-empty ring after a swap reads as extreme shift).
  /// Applies to all five signals, drift included.
  int64_t min_window = 64;
  /// Scored windows after a successful swap during which a
  /// kModelDegradation verdict rolls back to the last-known-good
  /// generation; surviving probation promotes the new generation.
  int64_t probation_windows = 512;
  /// Fewest retained canary windows needed to shadow-score a reload
  /// candidate; below this the canary phase is skipped (cold engine).
  int64_t canary_min_windows = 8;
  /// Recent raw windows each shard retains for the canary (4·w·D bytes
  /// each, per shard; tests/serve_test.cc pins the cost).
  int64_t canary_capacity = 64;
};

/// \brief What the monitor emits when a signal crosses its threshold.
struct HealthEvent {
  HealthVerdict verdict = HealthVerdict::kHealthy;
  HealthSignal signal = HealthSignal::kScoreShift;  // the signal that fired
  int64_t generation = 0;  // the generation under suspicion
  double value = 0.0;      // the statistic at fire time
  double threshold = 0.0;  // the limit it crossed
  int64_t window = 0;      // scores behind the statistic
  /// Set by ServingEngine::PollHealth when this event triggered an
  /// automatic rollback (kModelDegradation inside probation).
  bool rolled_back = false;
  int64_t rolled_back_to = 0;  // generation id restored, when rolled_back
};

class HealthMonitor {
 public:
  /// \brief `drift_threshold` and `drift_clear` are ServeConfig's: drift
  /// is on iff drift_threshold > 0, the other four signals iff
  /// health.enabled.
  HealthMonitor(const HealthConfig& health, double drift_threshold,
                double drift_clear);

  /// \brief Judge one snapshot. Signals are checked most-severe first
  /// (non-finite, dispersion, shift, alert rate, then drift) and at most
  /// ONE event is returned per call; every signal keeps its own
  /// hysteresis, so a still-excursed signal stays quiet until it clears and
  /// re-fires. A signal that is off, or whose window holds fewer than
  /// min_window scores, neither fires nor re-arms.
  std::optional<HealthEvent> Update(const EngineStats& stats);

  /// \brief Forget every excursion — called after a reload (accepted or
  /// rejected) or a rollback.
  void Reset();

  /// \brief Whether any signal is on.
  bool enabled() const;
  bool armed(HealthSignal signal) const { return armed_[Index(signal)]; }
  /// \brief Effective threshold / re-arm level of one signal.
  double threshold(HealthSignal signal) const {
    return threshold_[Index(signal)];
  }
  double clear_level(HealthSignal signal) const {
    return clear_[Index(signal)];
  }

 private:
  static int Index(HealthSignal signal) { return static_cast<int>(signal); }

  int64_t min_window_;
  // Per-signal tables, indexed by HealthSignal.
  bool on_[kNumHealthSignals];
  double threshold_[kNumHealthSignals];
  double clear_[kNumHealthSignals];
  bool armed_[kNumHealthSignals] = {true, true, true, true, true};
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_HEALTH_MONITOR_H_
