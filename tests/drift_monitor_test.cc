// The drift signal of serve::HealthMonitor (serve/health_monitor.h) on its
// own, the four model-health signals off: the hysteresis contract — one
// event per excursion, re-arm strictly below the clear level, disabled and
// cold-start cases stay silent, a reload re-arms. How drift interacts with
// the other four signals (check order, independent hysteresis, per-signal
// windows) is pinned in health_monitor_test.cc.

#include <gtest/gtest.h>

#include <cstdint>

#include "serve/health_monitor.h"

namespace caee {
namespace serve {
namespace {

// health.enabled stays false and health.min_window at its default (64):
// every event below is the drift signal's own.
HealthMonitor DriftOnly(double threshold, double clear = 0.0) {
  return HealthMonitor(HealthConfig(), threshold, clear);
}

EngineStats Drift(int64_t generation, double drift, int64_t drift_window) {
  EngineStats stats;
  stats.generation = generation;
  stats.drift = drift;
  stats.drift_window = drift_window;
  return stats;
}

TEST(DriftMonitorTest, DisabledMonitorNeverFires) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.0);
  EXPECT_FALSE(monitor.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(monitor.Update(Drift(1, /*drift=*/1.0, /*drift_window=*/512))
                     .has_value());
  }
}

TEST(DriftMonitorTest, FiresOncePerExcursionWithRequestFields) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.1, /*clear=*/0.05);
  ASSERT_TRUE(monitor.enabled());

  EXPECT_FALSE(monitor.Update(Drift(3, 0.08, 256)).has_value());  // below
  const auto fired = monitor.Update(Drift(3, 0.2, 256));
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->signal, HealthSignal::kDrift);
  EXPECT_EQ(fired->verdict, HealthVerdict::kDataDrift);
  EXPECT_EQ(fired->generation, 3);
  EXPECT_EQ(fired->value, 0.2);
  EXPECT_EQ(fired->threshold, 0.1);
  EXPECT_EQ(fired->window, 256);
  EXPECT_FALSE(fired->rolled_back);

  // Disarmed: staying high — or dipping between clear and threshold —
  // must NOT re-fire; one advisory per excursion.
  EXPECT_FALSE(monitor.Update(Drift(3, 0.3, 256)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(3, 0.07, 256)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(3, 0.2, 256)).has_value());
}

TEST(DriftMonitorTest, ReArmsStrictlyBelowClearLevel) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.1, /*clear=*/0.05);
  EXPECT_EQ(monitor.clear_level(HealthSignal::kDrift), 0.05);
  ASSERT_TRUE(monitor.Update(Drift(1, 0.2, 256)).has_value());

  // Exactly the clear level is not "cleared" (strictly below re-arms).
  EXPECT_FALSE(monitor.Update(Drift(1, 0.05, 256)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(1, 0.2, 256)).has_value());
  EXPECT_FALSE(monitor.armed(HealthSignal::kDrift));

  // Below clear: re-armed (the re-arming update itself never fires) and
  // the next excursion fires again.
  EXPECT_FALSE(monitor.Update(Drift(1, 0.04, 256)).has_value());
  EXPECT_TRUE(monitor.armed(HealthSignal::kDrift));
  EXPECT_TRUE(monitor.Update(Drift(1, 0.2, 256)).has_value());
}

TEST(DriftMonitorTest, ClearDefaultsToHalfTheThreshold) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.2);  // clear -> 0.1
  EXPECT_EQ(monitor.threshold(HealthSignal::kDrift), 0.2);
  EXPECT_EQ(monitor.clear_level(HealthSignal::kDrift), 0.1);
  ASSERT_TRUE(monitor.Update(Drift(1, 0.25, 256)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(1, 0.11, 256)).has_value());
  EXPECT_FALSE(monitor.armed(HealthSignal::kDrift));  // 0.11 >= 0.1
  EXPECT_FALSE(monitor.Update(Drift(1, 0.09, 256)).has_value());
  EXPECT_TRUE(monitor.armed(HealthSignal::kDrift));
}

TEST(DriftMonitorTest, ColdStartWindowIsIgnored) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.1, /*clear=*/0.05);
  // A huge drift over a tiny window is cold-start noise, not an alert.
  EXPECT_FALSE(monitor.Update(Drift(1, 0.9, 8)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(1, 0.9, 63)).has_value());
  EXPECT_TRUE(monitor.Update(Drift(1, 0.9, 64)).has_value());
}

TEST(DriftMonitorTest, ResetReArmsAfterAReload) {
  HealthMonitor monitor = DriftOnly(/*threshold=*/0.1, /*clear=*/0.05);
  ASSERT_TRUE(monitor.Update(Drift(1, 0.2, 256)).has_value());
  EXPECT_FALSE(monitor.Update(Drift(1, 0.2, 256)).has_value());

  // A reload installs a new calibration baseline: the monitor starts a
  // fresh excursion accounting even though drift never dipped.
  monitor.Reset();
  EXPECT_TRUE(monitor.armed(HealthSignal::kDrift));
  const auto fired = monitor.Update(Drift(2, 0.2, 256));
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->generation, 2);
}

}  // namespace
}  // namespace serve
}  // namespace caee
