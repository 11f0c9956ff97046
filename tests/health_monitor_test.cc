// Model-health validation units: the HealthRef calibration contract
// (core/health.h — calibration from scores or from a series, histogram
// binning, total-variation distance, validation of untrusted artifact
// bytes) and the HealthMonitor's per-signal hysteresis over its five
// signals (serve/health_monitor.h — one event per excursion per signal,
// severity-ordered single event per update, drift-vs-degradation
// classification, per-signal windows and enablement, cold-start
// silence). The hysteresis cases run twice: once
// on score shift, a health-ring gauge, and once on drift, which has its
// own ring and threshold.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/ensemble.h"
#include "core/health.h"
#include "serve/health_monitor.h"
#include "test_util.h"

namespace caee {
namespace {

// A well-behaved reference sample: kHealthMinScores+ distinct scores
// spread over [0, 2) with a constant dispersion baseline.
core::HealthRef MakeRef() {
  std::vector<double> scores, dispersions;
  for (int i = 0; i < 128; ++i) {
    scores.push_back(2.0 * static_cast<double>(i) / 128.0);
    dispersions.push_back(0.25);
  }
  auto ref = core::CalibrateHealthRef(scores, dispersions);
  CAEE_CHECK_MSG(ref.ok(), "health calibration failed in test setup");
  return std::move(ref).value();
}

TEST(HealthRefTest, CalibrationProducesAValidNormalizedHistogram) {
  const core::HealthRef ref = MakeRef();
  EXPECT_TRUE(core::ValidateHealthRef(ref).ok());
  EXPECT_EQ(ref.count, 128);
  EXPECT_EQ(static_cast<int64_t>(ref.bins.size()), core::kHealthBins);
  EXPECT_DOUBLE_EQ(ref.mean_dispersion, 0.25);
  EXPECT_LT(ref.min, ref.max);
  double mass = 0.0;
  for (const double b : ref.bins) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    mass += b;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(HealthRefTest, CalibrationRejectsDegenerateInput) {
  std::vector<double> few(10, 1.0), disp_few(10, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(few, disp_few).ok());

  std::vector<double> constant(100, 1.0), disp(100, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(constant, disp).ok());

  std::vector<double> scores, dispersions;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(static_cast<double>(i));
    dispersions.push_back(0.1);
  }
  std::vector<double> mismatched(99, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(scores, mismatched).ok());

  std::vector<double> with_nan = scores;
  with_nan[50] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(core::CalibrateHealthRef(with_nan, dispersions).ok());
}

// The series form scores every full window through ScoreWindowsLastInto,
// the serving entry point, in chunks of 256: the reference is the one a
// single batch over all windows gives, across chunk boundaries too.
TEST(HealthRefTest, CalibrationFromASeriesScoresEveryWindow) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 6;
  config.cae.num_layers = 1;
  config.window = 6;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.max_train_windows = 64;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(200, 2, 3)).ok());

  const ts::TimeSeries series = testutil::PlantedSeries(600, 2, 4, {300});
  const int64_t windows = series.length() - config.window + 1;  // 3 chunks
  std::vector<float> all;
  for (int64_t i = 0; i < windows; ++i) {
    all.insert(all.end(), series.row(i),
               series.row(i) + config.window * series.dims());
  }
  std::vector<double> scores, dispersions;
  ASSERT_TRUE(
      ensemble.ScoreWindowsLastInto(all.data(), windows, &scores, &dispersions)
          .ok());
  const auto expected = core::CalibrateHealthRef(scores, dispersions);
  ASSERT_TRUE(expected.ok()) << expected.status();

  const auto ref = core::CalibrateHealthRef(ensemble, series);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref->count, windows);
  EXPECT_EQ(ref->min, expected->min);
  EXPECT_EQ(ref->max, expected->max);
  EXPECT_EQ(ref->mean, expected->mean);
  EXPECT_EQ(ref->stddev, expected->stddev);
  EXPECT_EQ(ref->mean_dispersion, expected->mean_dispersion);
  EXPECT_EQ(ref->bins, expected->bins);

  const ts::TimeSeries wide = testutil::PlantedSeries(100, 3, 4);
  EXPECT_EQ(core::CalibrateHealthRef(ensemble, wide).status().code(),
            StatusCode::kInvalidArgument);
  const ts::TimeSeries short_series =
      testutil::PlantedSeries(config.window - 1, 2, 4);
  EXPECT_EQ(core::CalibrateHealthRef(ensemble, short_series).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HealthRefTest, BinIndexClampsTheTails) {
  const core::HealthRef ref = MakeRef();
  // Below the range and at the minimum: bin 0. At or above the maximum:
  // the last bin. The tails are exactly what shift detection must keep.
  EXPECT_EQ(core::HealthBinIndex(ref, ref.min - 100.0), 0);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.min), 0);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.max), core::kHealthBins - 1);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.max + 100.0),
            core::kHealthBins - 1);
  // Far past the range the bin quotient overflows int64: clamped before
  // the cast, not wrapped into bin 0 (or INT64_MIN).
  EXPECT_EQ(core::HealthBinIndex(ref, ref.max * 1e20), core::kHealthBins - 1);
  EXPECT_EQ(core::HealthBinIndex(ref, std::numeric_limits<double>::max()),
            core::kHealthBins - 1);
  const int64_t mid = core::HealthBinIndex(ref, (ref.min + ref.max) / 2.0);
  EXPECT_GT(mid, 0);
  EXPECT_LT(mid, core::kHealthBins - 1);
}

TEST(HealthRefTest, TotalVariationSpansIdenticalToDisjoint) {
  const core::HealthRef ref = MakeRef();

  // A live histogram proportional to the reference mass: TV ~ 0.
  std::vector<int64_t> matched(static_cast<size_t>(core::kHealthBins), 0);
  int64_t total = 0;
  for (int64_t i = 0; i < core::kHealthBins; ++i) {
    matched[static_cast<size_t>(i)] =
        static_cast<int64_t>(ref.bins[static_cast<size_t>(i)] * 1000.0 + 0.5);
    total += matched[static_cast<size_t>(i)];
  }
  EXPECT_LT(core::HealthTotalVariation(ref, matched.data(), total), 0.05);

  // All mass in one tail bin the reference barely occupies: TV -> 1.
  std::vector<int64_t> shifted(static_cast<size_t>(core::kHealthBins), 0);
  shifted[0] = 500;
  EXPECT_GT(core::HealthTotalVariation(ref, shifted.data(), 500), 0.9);

  // An empty live histogram is "no evidence", not "maximal shift".
  std::vector<int64_t> empty(static_cast<size_t>(core::kHealthBins), 0);
  EXPECT_EQ(core::HealthTotalVariation(ref, empty.data(), 0), 0.0);
}

TEST(HealthRefTest, ValidationCatchesCorruptFields) {
  core::HealthRef ref = MakeRef();
  ASSERT_TRUE(core::ValidateHealthRef(ref).ok());

  core::HealthRef bad = ref;
  bad.max = bad.min;  // empty range
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.bins[3] = 1.5;  // out-of-range fraction
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.bins.pop_back();  // wrong bin count
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.mean = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.count = core::kHealthMinScores - 1;
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.mean_dispersion = -0.1;
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());
}

// --------------------------------------------------------------------------
// HealthMonitor.
// --------------------------------------------------------------------------

constexpr double kShiftThreshold = 0.3;
constexpr double kDriftThreshold = 0.1;

serve::HealthConfig MonitorConfig() {
  serve::HealthConfig config;
  config.enabled = true;
  config.shift_threshold = kShiftThreshold;
  config.dispersion_threshold = 4.0;
  config.non_finite_threshold = 0.01;
  config.alert_threshold = 0.5;
  config.min_window = 64;
  return config;
}

serve::HealthMonitor Monitor(const serve::HealthConfig& config) {
  return serve::HealthMonitor(config, kDriftThreshold, /*drift_clear=*/0.0);
}

serve::EngineStats Healthy() {
  serve::EngineStats stats;
  stats.generation = 1;
  stats.health_window = 256;
  stats.score_shift = 0.05;
  stats.dispersion_ratio = 1.0;
  stats.non_finite_rate = 0.0;
  stats.alert_rate = 0.05;
  stats.drift_window = 256;
  stats.drift = 0.02;
  return stats;
}

// One signal as the hysteresis cases drive it: which snapshot fields hold
// its value and its window, and the threshold Monitor() gives it.
struct Gauge {
  serve::HealthSignal signal;
  double serve::EngineStats::*value;
  int64_t serve::EngineStats::*window;
  double threshold;
};
constexpr Gauge kShiftAndDrift[] = {
    {serve::HealthSignal::kScoreShift, &serve::EngineStats::score_shift,
     &serve::EngineStats::health_window, kShiftThreshold},
    {serve::HealthSignal::kDrift, &serve::EngineStats::drift,
     &serve::EngineStats::drift_window, kDriftThreshold},
};

TEST(HealthMonitorTest, DisabledMonitorNeverFires) {
  serve::HealthConfig config = MonitorConfig();
  config.enabled = false;
  serve::HealthMonitor monitor(config, /*drift_threshold=*/0.0, 0.0);
  EXPECT_FALSE(monitor.enabled());
  serve::EngineStats bad = Healthy();
  bad.non_finite_rate = 1.0;
  bad.score_shift = 1.0;
  bad.drift = 1.0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(monitor.Update(bad).has_value());
  }
}

TEST(HealthMonitorTest, ColdStartWindowIsIgnored) {
  for (const Gauge& g : kShiftAndDrift) {
    SCOPED_TRACE(serve::HealthSignalName(g.signal));
    serve::HealthMonitor monitor = Monitor(MonitorConfig());
    serve::EngineStats bad = Healthy();
    bad.*g.value = 0.99;  // a near-empty ring reads as an extreme value
    for (const int64_t cold : {8, 63}) {
      bad.*g.window = cold;
      EXPECT_FALSE(monitor.Update(bad).has_value()) << cold;
    }
    bad.*g.window = 64;
    const auto fired = monitor.Update(bad);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(fired->signal, g.signal);
  }
}

TEST(HealthMonitorTest, ClassificationSplitsDriftFromDegradation) {
  // Shift, alert-rate runaway and SPOT drift mean the DATA changed (repair
  // can fix it); non-finite scores and member-agreement collapse mean the
  // MODEL is broken (rollback territory).
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kScoreShift),
            serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kAlertRate),
            serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kDrift),
            serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kNonFiniteRate),
            serve::HealthVerdict::kModelDegradation);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kDispersion),
            serve::HealthVerdict::kModelDegradation);
}

TEST(HealthMonitorTest, FiresOncePerExcursionWithEventFields) {
  for (const Gauge& g : kShiftAndDrift) {
    SCOPED_TRACE(serve::HealthSignalName(g.signal));
    const double t = g.threshold;
    serve::HealthMonitor monitor = Monitor(MonitorConfig());
    serve::EngineStats stats = Healthy();
    stats.generation = 3;
    stats.*g.window = 300;  // the event carries this signal's own window
    EXPECT_FALSE(monitor.Update(stats).has_value());

    stats.*g.value = 1.5 * t;
    const auto fired = monitor.Update(stats);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(fired->signal, g.signal);
    EXPECT_EQ(fired->verdict, serve::HealthVerdict::kDataDrift);
    EXPECT_EQ(fired->generation, 3);
    EXPECT_EQ(fired->value, 1.5 * t);
    EXPECT_EQ(fired->threshold, t);
    EXPECT_EQ(fired->window, 300);
    EXPECT_FALSE(fired->rolled_back);

    // Disarmed: staying high, dipping between clear and threshold, or
    // sitting exactly at the clear level (threshold / 2) must not re-fire
    // — one event per excursion.
    EXPECT_FALSE(monitor.Update(stats).has_value());
    for (const double k : {0.7, 0.5, 1.7}) {
      stats.*g.value = k * t;
      EXPECT_FALSE(monitor.Update(stats).has_value()) << k;
      EXPECT_FALSE(monitor.armed(g.signal)) << k;
    }

    // Strictly below the clear level: re-armed (the re-arming update
    // itself never fires), and the next excursion fires again.
    stats.*g.value = 0.3 * t;
    EXPECT_FALSE(monitor.Update(stats).has_value());
    EXPECT_TRUE(monitor.armed(g.signal));
    stats.*g.value = 1.7 * t;
    EXPECT_TRUE(monitor.Update(stats).has_value());
  }
}

TEST(HealthMonitorTest, MostSevereSignalWinsAndOthersKeepTheirState) {
  serve::HealthMonitor monitor = Monitor(MonitorConfig());
  // Everything bad at once: the single event is the most severe signal
  // (non-finite rate), and the others stay ARMED — they fire on later
  // updates in check order, drift last, so nothing is silently swallowed.
  serve::EngineStats bad = Healthy();
  bad.non_finite_rate = 0.5;
  bad.dispersion_ratio = 10.0;
  bad.score_shift = 0.9;
  bad.alert_rate = 0.9;
  bad.drift = 0.9;
  const auto first = monitor.Update(bad);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->signal, serve::HealthSignal::kNonFiniteRate);
  EXPECT_EQ(first->verdict, serve::HealthVerdict::kModelDegradation);

  for (const serve::HealthSignal next :
       {serve::HealthSignal::kDispersion, serve::HealthSignal::kScoreShift,
        serve::HealthSignal::kAlertRate, serve::HealthSignal::kDrift}) {
    const auto event = monitor.Update(bad);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->signal, next);
  }
  // Every signal disarmed: silence until something clears.
  EXPECT_FALSE(monitor.Update(bad).has_value());
}

TEST(HealthMonitorTest, PerSignalHysteresisIsIndependent) {
  serve::HealthMonitor monitor = Monitor(MonitorConfig());
  serve::EngineStats stats = Healthy();
  stats.score_shift = 0.5;
  ASSERT_TRUE(monitor.Update(stats).has_value());

  // The shift excursion is still in progress when the alert rate and then
  // the drift spike: each has its own hysteresis and fires at once.
  stats.alert_rate = 0.8;
  const auto alert = monitor.Update(stats);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->signal, serve::HealthSignal::kAlertRate);
  stats.drift = 0.5;
  const auto drift = monitor.Update(stats);
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->signal, serve::HealthSignal::kDrift);

  // Shift clears and re-fires while alert and drift stay disarmed.
  stats.score_shift = 0.05;
  EXPECT_FALSE(monitor.Update(stats).has_value());
  stats.score_shift = 0.5;
  const auto again = monitor.Update(stats);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->signal, serve::HealthSignal::kScoreShift);
  EXPECT_FALSE(monitor.Update(stats).has_value());
}

TEST(HealthMonitorTest, ResetReArmsEverySignal) {
  serve::HealthMonitor monitor = Monitor(MonitorConfig());
  serve::EngineStats bad = Healthy();
  bad.non_finite_rate = 0.5;
  bad.score_shift = 0.9;
  bad.drift = 0.9;
  ASSERT_TRUE(monitor.Update(bad).has_value());  // non-finite
  ASSERT_TRUE(monitor.Update(bad).has_value());  // shift
  ASSERT_TRUE(monitor.Update(bad).has_value());  // drift
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kNonFiniteRate));
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kScoreShift));
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kDrift));

  // A swap, a rejected reload or a rollback: fresh excursion accounting
  // even though the gauges never dipped.
  monitor.Reset();
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kNonFiniteRate));
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kScoreShift));
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kDrift));
  bad.generation = 2;
  const auto fired = monitor.Update(bad);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->generation, 2);
}

TEST(HealthMonitorTest, ExplicitClearLevelsOverrideTheHalfDefault) {
  // One monitor per gauge, with that gauge's clear set to 0.8 x its
  // threshold (shift through HealthConfig, drift through the constructor).
  serve::HealthConfig shift_config = MonitorConfig();
  shift_config.shift_clear = 0.8 * kShiftThreshold;
  serve::HealthMonitor monitors[] = {
      serve::HealthMonitor(shift_config, kDriftThreshold, 0.0),
      serve::HealthMonitor(MonitorConfig(), kDriftThreshold,
                           0.8 * kDriftThreshold)};
  // Unset clears default to half the threshold.
  EXPECT_EQ(monitors[0].clear_level(serve::HealthSignal::kDrift),
            kDriftThreshold / 2);
  EXPECT_EQ(monitors[1].clear_level(serve::HealthSignal::kScoreShift),
            kShiftThreshold / 2);
  EXPECT_EQ(monitors[0].clear_level(serve::HealthSignal::kAlertRate), 0.25);
  EXPECT_EQ(monitors[0].clear_level(serve::HealthSignal::kDispersion), 2.0);

  for (int i = 0; i < 2; ++i) {
    const Gauge& g = kShiftAndDrift[i];
    SCOPED_TRACE(serve::HealthSignalName(g.signal));
    const double t = g.threshold;
    serve::HealthMonitor& monitor = monitors[i];
    EXPECT_EQ(monitor.clear_level(g.signal), 0.8 * t);
    serve::EngineStats stats = Healthy();
    stats.*g.value = 1.5 * t;
    ASSERT_TRUE(monitor.Update(stats).has_value());
    // Above the explicit clear, or exactly at it: still disarmed.
    for (const double k : {0.9, 0.8}) {
      stats.*g.value = k * t;
      EXPECT_FALSE(monitor.Update(stats).has_value()) << k;
      EXPECT_FALSE(monitor.armed(g.signal)) << k;
    }
    stats.*g.value = 0.7 * t;  // strictly below: re-armed
    EXPECT_FALSE(monitor.Update(stats).has_value());
    EXPECT_TRUE(monitor.armed(g.signal));
  }
}

// Each signal is judged over its own window: drift over the drift rings,
// the four gauges over the health rings. A short window silences only the
// signals it backs, and a disarmed signal neither fires nor re-arms while
// its window is short.
TEST(HealthMonitorTest, EachSignalIsJudgedOverItsOwnWindow) {
  serve::HealthMonitor monitor = Monitor(MonitorConfig());
  serve::EngineStats stats = Healthy();
  stats.score_shift = 0.9;
  stats.drift = 0.9;
  stats.health_window = 8;  // health rings still cold
  const auto drift = monitor.Update(stats);
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->signal, serve::HealthSignal::kDrift);
  EXPECT_FALSE(monitor.Update(stats).has_value());

  stats.health_window = 256;
  stats.drift_window = 8;  // now the drift rings are cold
  stats.drift = 0.0;       // would re-arm drift over a trusted window
  const auto shift = monitor.Update(stats);
  ASSERT_TRUE(shift.has_value());
  EXPECT_EQ(shift->signal, serve::HealthSignal::kScoreShift);
  EXPECT_EQ(shift->window, 256);
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kDrift));
}

// Drift is on iff its threshold is > 0, whatever health.enabled says; the
// four health signals are on iff health.enabled.
TEST(HealthMonitorTest, EachSignalIsEnabledOnItsOwn) {
  serve::EngineStats bad = Healthy();
  bad.non_finite_rate = 0.5;
  bad.dispersion_ratio = 10.0;
  bad.score_shift = 0.9;
  bad.alert_rate = 0.9;
  bad.drift = 0.9;

  serve::HealthConfig off = MonitorConfig();
  off.enabled = false;
  serve::HealthMonitor drift_only(off, kDriftThreshold, 0.0);
  EXPECT_TRUE(drift_only.enabled());
  const auto drift = drift_only.Update(bad);
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->signal, serve::HealthSignal::kDrift);
  EXPECT_FALSE(drift_only.Update(bad).has_value());

  serve::HealthMonitor health_only(MonitorConfig(), /*drift_threshold=*/0.0,
                                   0.0);
  EXPECT_TRUE(health_only.enabled());
  for (int i = 0; i < 4; ++i) {
    const auto event = health_only.Update(bad);
    ASSERT_TRUE(event.has_value());
    EXPECT_NE(event->signal, serve::HealthSignal::kDrift);
  }
  EXPECT_FALSE(health_only.Update(bad).has_value());
  EXPECT_TRUE(health_only.armed(serve::HealthSignal::kDrift));
}

TEST(HealthMonitorTest, NamesAreStableForOperatorOutput) {
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kScoreShift),
               "score-shift");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kDispersion),
               "dispersion");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kNonFiniteRate),
               "non-finite-rate");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kAlertRate),
               "alert-rate");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kDrift), "drift");
  EXPECT_STREQ(serve::HealthVerdictName(serve::HealthVerdict::kDataDrift),
               "data-drift");
  EXPECT_STREQ(
      serve::HealthVerdictName(serve::HealthVerdict::kModelDegradation),
      "model-degradation");
}

}  // namespace
}  // namespace caee
