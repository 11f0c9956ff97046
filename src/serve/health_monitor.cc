#include "serve/health_monitor.h"

#include <algorithm>
#include <iterator>

namespace caee {
namespace serve {
namespace {

// Where each signal's value and window live in the engine snapshot,
// indexed by HealthSignal. The four health gauges share the health rings'
// window; drift has the drift rings' own.
struct Gauge {
  double EngineStats::*value;
  int64_t EngineStats::*window;
};
constexpr Gauge kGauges[kNumHealthSignals] = {
    {&EngineStats::score_shift, &EngineStats::health_window},
    {&EngineStats::dispersion_ratio, &EngineStats::health_window},
    {&EngineStats::non_finite_rate, &EngineStats::health_window},
    {&EngineStats::alert_rate, &EngineStats::health_window},
    {&EngineStats::drift, &EngineStats::drift_window},
};

// Check order: most severe first, so one Update on a badly broken model
// reports the signal that best explains the breakage.
constexpr HealthSignal kCheckOrder[kNumHealthSignals] = {
    HealthSignal::kNonFiniteRate,
    HealthSignal::kDispersion,
    HealthSignal::kScoreShift,
    HealthSignal::kAlertRate,
    HealthSignal::kDrift,
};

}  // namespace

const char* HealthSignalName(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kScoreShift:
      return "score-shift";
    case HealthSignal::kDispersion:
      return "dispersion";
    case HealthSignal::kNonFiniteRate:
      return "non-finite-rate";
    case HealthSignal::kAlertRate:
      return "alert-rate";
    case HealthSignal::kDrift:
      return "drift";
  }
  return "unknown";
}

const char* HealthVerdictName(HealthVerdict verdict) {
  switch (verdict) {
    case HealthVerdict::kHealthy:
      return "healthy";
    case HealthVerdict::kDataDrift:
      return "data-drift";
    case HealthVerdict::kModelDegradation:
      return "model-degradation";
  }
  return "unknown";
}

HealthVerdict ClassifyHealthSignal(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kNonFiniteRate:
    case HealthSignal::kDispersion:
      return HealthVerdict::kModelDegradation;
    case HealthSignal::kScoreShift:
    case HealthSignal::kAlertRate:
    case HealthSignal::kDrift:
      return HealthVerdict::kDataDrift;
  }
  return HealthVerdict::kHealthy;
}

HealthMonitor::HealthMonitor(const HealthConfig& health,
                             double drift_threshold, double drift_clear)
    : min_window_(health.min_window),
      on_{health.enabled, health.enabled, health.enabled, health.enabled,
          drift_threshold > 0.0},
      threshold_{health.shift_threshold, health.dispersion_threshold,
                 health.non_finite_threshold, health.alert_threshold,
                 drift_threshold},
      clear_{health.shift_clear, health.dispersion_clear,
             health.non_finite_clear, health.alert_clear, drift_clear} {
  for (int i = 0; i < kNumHealthSignals; ++i) {
    if (clear_[i] <= 0.0) clear_[i] = threshold_[i] / 2.0;
  }
}

bool HealthMonitor::enabled() const {
  return std::any_of(std::begin(on_), std::end(on_),
                     [](bool on) { return on; });
}

std::optional<HealthEvent> HealthMonitor::Update(const EngineStats& stats) {
  std::optional<HealthEvent> fired;
  for (HealthSignal signal : kCheckOrder) {
    const int i = Index(signal);
    const int64_t window = stats.*kGauges[i].window;
    if (!on_[i] || window < min_window_) continue;
    const double value = stats.*kGauges[i].value;
    if (!armed_[i]) {
      // Hysteresis: re-arm only once the statistic drops strictly below
      // the clear level, so a lingering excursion fires exactly once.
      if (value < clear_[i]) armed_[i] = true;
      continue;
    }
    if (value > threshold_[i] && !fired.has_value()) {
      armed_[i] = false;
      HealthEvent event;
      event.signal = signal;
      event.verdict = ClassifyHealthSignal(signal);
      event.generation = stats.generation;
      event.value = value;
      event.threshold = threshold_[i];
      event.window = window;
      fired = event;
    }
  }
  return fired;
}

void HealthMonitor::Reset() { std::fill_n(armed_, kNumHealthSignals, true); }

}  // namespace serve
}  // namespace caee
