// Zero-downtime artifact hot-swap (ServingEngine::ReloadArtifact): the
// tentpole determinism contract — every scored window is attributable to
// exactly ONE generation and is bitwise equal to a single-generation run
// of that generation's artifact — plus degraded mode (a rejected candidate
// leaves the old generation serving) and swap-under-concurrent-pushers
// exactly-once accounting. docs/operations.md is the operator-facing spec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/streaming.h"
#include "serve/serving_engine.h"
#include "test_util.h"

namespace caee {
namespace {

core::EnsembleConfig TinyConfig(uint64_t seed, int64_t window = 5) {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 6;
  cfg.cae.num_layers = 1;
  cfg.window = window;
  cfg.num_models = 2;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 32;
  cfg.max_train_windows = 64;
  cfg.seed = seed;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<float> Row(const ts::TimeSeries& s, int64_t t) {
  return std::vector<float>(s.row(t), s.row(t) + s.dims());
}

// Ground truth per generation: a dedicated sequential scorer over the FULL
// series. A window's score depends only on the window's contents and the
// scoring weights, so the post-swap scores of a mid-stream reload must
// bitwise match this single-generation run from observation index w-1 on.
// Returned indexed by observation index (quiet NaN during warm-up).
std::vector<double> ReferenceScores(const core::CaeEnsemble* ensemble,
                                    const ts::TimeSeries& series) {
  std::vector<double> scores(static_cast<size_t>(series.length()),
                             std::numeric_limits<double>::quiet_NaN());
  core::StreamingScorer scorer(ensemble);
  for (int64_t t = 0; t < series.length(); ++t) {
    auto result = scorer.Push(Row(series, t));
    CAEE_CHECK(result.ok());
    if (result->has_value()) {
      scores[static_cast<size_t>(t)] = result->value();
    }
  }
  return scores;
}

core::SpotInit CalibratedSpot(core::CaeEnsemble* ensemble,
                              const ts::TimeSeries& train,
                              int64_t peak_capacity = 16) {
  auto scores = ensemble->Score(train);
  CAEE_CHECK(scores.ok());
  core::SpotConfig config;
  config.level = 0.8;
  config.q = 0.05;
  config.peak_capacity = peak_capacity;
  auto init = core::CalibrateSpot(scores.value(), config);
  CAEE_CHECK_MSG(init.ok(), "SPOT calibration failed in test setup");
  return std::move(init).value();
}

// A health reference distilled from the ensemble's own training scores.
// `score_scale` shifts the histogram away from where the model really
// scores (a deliberately miscalibrated candidate the canary must catch);
// `dispersion` sets the member-agreement baseline the live ratio divides
// by (tiny values make ANY live traffic read as agreement collapse).
core::HealthRef CalibratedHealth(core::CaeEnsemble* ensemble,
                                 const ts::TimeSeries& train,
                                 double score_scale = 1.0,
                                 double dispersion = 0.25) {
  auto scores = ensemble->Score(train);
  CAEE_CHECK(scores.ok());
  std::vector<double> scaled = scores.value();
  for (double& s : scaled) s *= score_scale;
  std::vector<double> dispersions(scaled.size(), dispersion);
  auto ref = core::CalibrateHealthRef(scaled, dispersions);
  CAEE_CHECK_MSG(ref.ok(), "health calibration failed in test setup");
  return std::move(ref).value();
}

class HotSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = testutil::PlantedSeries(220, 2, 1);
    ensemble_a_ = std::make_unique<core::CaeEnsemble>(TinyConfig(11));
    ASSERT_TRUE(ensemble_a_->Fit(train_).ok());
    // Same geometry (window, dims), different weights: a swapped-in score
    // that silently came from the wrong generation cannot match both
    // references.
    ensemble_b_ = std::make_unique<core::CaeEnsemble>(TinyConfig(23));
    ASSERT_TRUE(ensemble_b_->Fit(testutil::PlantedSeries(220, 2, 2)).ok());
  }

  std::string SaveB(const std::string& name,
                    std::optional<double> threshold = std::nullopt,
                    const core::SpotInit* spot = nullptr,
                    const core::HealthRef* health = nullptr) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(
        core::SaveEnsemble(*ensemble_b_, path, threshold, spot, health).ok());
    return path;
  }

  ts::TimeSeries train_;
  std::unique_ptr<core::CaeEnsemble> ensemble_a_;
  std::unique_ptr<core::CaeEnsemble> ensemble_b_;
};

TEST_F(HotSwapTest, MidStreamSwapIsBitwisePerGeneration) {
  const auto series = testutil::PlantedSeries(60, 2, 7, {30});
  const auto ref_a = ReferenceScores(ensemble_a_.get(), series);
  const auto ref_b = ReferenceScores(ensemble_b_.get(), series);
  const std::string path_b = SaveB("midstream_b.caee");
  const int64_t w = ensemble_a_->config().window;

  serve::ServeConfig config;
  config.max_batch = 3;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_a_.get(), config);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  // 26 observations -> 22 ready windows -> one window still PENDING at
  // the swap (22 % 3 == 1). It must survive the swap, not be dropped.
  std::vector<serve::StreamScore> results;
  const int64_t kSwapAt = 26;
  for (int64_t t = 0; t < kSwapAt; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_EQ(engine.pending_windows(), 1);

  auto swapped = engine.ReloadArtifact(path_b);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped.value(), 2);
  EXPECT_EQ(engine.generation(), 2);
  EXPECT_EQ(engine.pending_windows(), 1);  // survived the swap

  for (int64_t t = kSwapAt; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());

  // Exactly-once: every post-warm-up index, no duplicates, no gaps.
  std::map<int64_t, std::pair<double, int64_t>> by_index;
  for (const auto& r : results) {
    EXPECT_EQ(r.stream_id, 1);
    EXPECT_TRUE(by_index.emplace(r.index, std::make_pair(r.score,
                                                         r.generation))
                    .second)
        << "index " << r.index << " scored twice";
  }
  ASSERT_EQ(static_cast<int64_t>(by_index.size()), series.length() - (w - 1));

  // Per-generation bitwise attribution, and the generations partition the
  // stream: a prefix on gen 1, the rest on gen 2 (pushes are sequential).
  int64_t gen1 = 0, gen2 = 0, first_gen2 = series.length();
  for (const auto& [index, score_gen] : by_index) {
    const auto& [score, generation] = score_gen;
    const auto ref = generation == 1 ? ref_a : ref_b;
    ASSERT_TRUE(generation == 1 || generation == 2);
    EXPECT_EQ(score, ref[static_cast<size_t>(index)])
        << "index " << index << " generation " << generation;
    if (generation == 1) {
      ++gen1;
      EXPECT_LT(index, first_gen2);
    } else {
      ++gen2;
      first_gen2 = std::min(first_gen2, index);
    }
  }
  EXPECT_GT(gen1, 0);
  EXPECT_GT(gen2, 0);
}

TEST_F(HotSwapTest, RejectedCandidateKeepsOldGenerationServing) {
  const auto series = testutil::PlantedSeries(40, 2, 7);
  const auto ref_a = ReferenceScores(ensemble_a_.get(), series);

  // Same dims, WRONG window: session rings are sized by the window, so
  // the candidate must be rejected before any shard sees it.
  core::CaeEnsemble wrong_window(TinyConfig(31, /*window=*/6));
  ASSERT_TRUE(wrong_window.Fit(train_).ok());
  const std::string bad_path = TempPath("wrong_window.caee");
  ASSERT_TRUE(core::SaveEnsemble(wrong_window, bad_path).ok());

  serve::ServeConfig config;
  config.max_batch = 4;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_a_.get(), config);
  ASSERT_TRUE(engine.OpenStream(9).ok());

  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(engine.Push(9, Row(series, t), &results).ok());
  }

  auto swapped = engine.ReloadArtifact(bad_path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(swapped.status().message().find("still serving generation 1"),
            std::string::npos)
      << swapped.status();
  EXPECT_NE(swapped.status().message().find("window"), std::string::npos);
  EXPECT_EQ(engine.generation(), 1);
  EXPECT_EQ(engine.Stats().failed_reloads, 1);
  EXPECT_EQ(engine.Stats().reloads, 0);

  // Degraded mode is not "stopped": the stream keeps scoring, bitwise on
  // the OLD generation.
  for (int64_t t = 20; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(9, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  for (const auto& r : results) {
    EXPECT_EQ(r.generation, 1);
    EXPECT_EQ(r.score, ref_a[static_cast<size_t>(r.index)]);
  }
}

TEST_F(HotSwapTest, SwapUpdatesThresholdVerdictsImmediately) {
  const auto series = testutil::PlantedSeries(40, 2, 7);
  // Gen 1: an unreachable threshold (nothing flags); candidate: a
  // threshold below every finite score (everything flags).
  const std::string path_b = SaveB("flip_threshold.caee", -1e300);

  serve::ServeConfig config;
  config.max_batch = 1;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_a_.get(), config, 1e300);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  for (const auto& r : results) EXPECT_FALSE(r.flag);
  ASSERT_FALSE(results.empty());

  ASSERT_TRUE(engine.ReloadArtifact(path_b).ok());
  ASSERT_TRUE(engine.threshold().has_value());
  EXPECT_EQ(engine.threshold().value(), -1e300);

  results.clear();
  for (int64_t t = 20; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_EQ(r.generation, 2);
    EXPECT_TRUE(r.flag);
  }
}

TEST_F(HotSwapTest, SpotCapabilityAndPeakCapacityAreInvariant) {
  const core::SpotInit spot_a = CalibratedSpot(ensemble_a_.get(), train_);

  serve::ServeConfig config;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_a_.get(), config, 1.5, spot_a);

  // A candidate WITHOUT SPOT params cannot serve the open kSpot sessions.
  auto no_spot = engine.ReloadArtifact(SaveB("no_spot.caee", 0.5));
  ASSERT_FALSE(no_spot.ok());
  EXPECT_NE(no_spot.status().message().find("SPOT"), std::string::npos);

  // A different peak capacity would not fit the per-stream slabs.
  const core::SpotInit wide = CalibratedSpot(
      ensemble_b_.get(), train_, /*peak_capacity=*/32);
  auto wrong_cap =
      engine.ReloadArtifact(SaveB("wide_spot.caee", 0.5, &wide));
  ASSERT_FALSE(wrong_cap.ok());
  EXPECT_NE(wrong_cap.status().message().find("peak capacity"),
            std::string::npos);
  EXPECT_EQ(engine.generation(), 1);

  // Matching capability and capacity: adopted, and the engine reads the
  // candidate's calibration.
  const core::SpotInit spot_b = CalibratedSpot(ensemble_b_.get(), train_);
  auto swapped = engine.ReloadArtifact(SaveB("match_spot.caee", 0.5,
                                             &spot_b));
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  ASSERT_NE(engine.spot(), nullptr);
  EXPECT_EQ(engine.spot()->t, spot_b.t);
  EXPECT_EQ(engine.spot()->config.peak_capacity, 16);
}

TEST_F(HotSwapTest, CanaryRejectionLeavesScoresBitwiseUntouched) {
  // Long enough that the live series itself clears kHealthMinScores — the
  // "healthy candidate" at the end calibrates on it.
  const auto series = testutil::PlantedSeries(100, 2, 7);
  const auto ref_a = ReferenceScores(ensemble_a_.get(), series);

  // The candidate's health reference is calibrated 1000x away from where
  // the model actually scores: shadow-scoring the retained canary windows
  // lands every score in the bottom bin, total-variation distance ~ 1.
  const core::HealthRef bad_ref =
      CalibratedHealth(ensemble_b_.get(), train_, /*score_scale=*/1000.0);
  const std::string bad_path =
      SaveB("canary_bad.caee", std::nullopt, nullptr, &bad_ref);

  serve::ServeConfig config;
  config.max_batch = 3;
  config.flush_deadline_ms = 0;
  config.health.enabled = true;
  serve::ServingEngine engine(ensemble_a_.get(), config, std::nullopt,
                              std::nullopt,
                              CalibratedHealth(ensemble_a_.get(), train_));
  ASSERT_TRUE(engine.OpenStream(1).ok());

  // Enough traffic to fill the canary ring past canary_min_windows, with
  // one window left PENDING so the rejection must also leave it intact.
  std::vector<serve::StreamScore> results;
  const int64_t kRejectAt = 26;
  for (int64_t t = 0; t < kRejectAt; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_EQ(engine.pending_windows(), 1);

  auto swapped = engine.ReloadArtifact(bad_path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(swapped.status().message().find("canary rejected candidate"),
            std::string::npos)
      << swapped.status();
  EXPECT_NE(swapped.status().message().find("still serving generation 1"),
            std::string::npos);
  EXPECT_EQ(engine.generation(), 1);
  EXPECT_EQ(engine.pending_windows(), 1);  // shards bitwise untouched
  EXPECT_EQ(engine.Stats().canary_rejections, 1);
  EXPECT_EQ(engine.Stats().failed_reloads, 1);
  EXPECT_EQ(engine.Stats().reloads, 0);
  EXPECT_EQ(engine.Stats().rollbacks, 0);

  // The rejection consumed nothing: every later score is bitwise the
  // single-generation reference, on generation 1.
  for (int64_t t = kRejectAt; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_EQ(r.generation, 1);
    EXPECT_EQ(r.score, ref_a[static_cast<size_t>(r.index)]) << r.index;
  }

  // A healthy candidate passes the SAME canary afterwards: the gate
  // rejects bad models, not reloads per se. "Healthy" means calibrated on
  // the live traffic's distribution — the canary really is distribution
  // sensitivity, which the train_-calibrated rejection above also shows.
  const core::HealthRef good_ref =
      CalibratedHealth(ensemble_b_.get(), series);
  auto ok = engine.ReloadArtifact(
      SaveB("canary_good.caee", std::nullopt, nullptr, &good_ref));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(engine.generation(), 2);
  EXPECT_TRUE(engine.in_probation());
}

// docs/operations.md "After a rejected reload": a rejected reload re-arms
// every monitor signal. The rejection proves the live excursion was judged
// against a candidate that never took over — the incident is still
// unresolved, and whatever replaces the candidate next deserves a fresh
// firing, not a signal that stays disarmed from an excursion accounted to
// a reload that never happened.
TEST_F(HotSwapTest, RejectedReloadReArmsDriftAndHealthSignals) {
  const auto series = testutil::PlantedSeries(100, 2, 7);

  // SPOT with the calibration threshold forced to 0: every (positive)
  // score is an exceed, the drift statistic pins at |1.0 - (1 - level)| =
  // 0.8, and the drift signal deterministically fires.
  core::SpotInit spot_a = CalibratedSpot(ensemble_a_.get(), train_);
  spot_a.t = 0.0;
  // Health reference scaled 1000x off: every live score lands in the
  // bottom bin, total variation ~ 1, and the score-shift signal fires.
  const core::HealthRef shifted =
      CalibratedHealth(ensemble_a_.get(), train_, /*score_scale=*/1000.0);

  serve::ServeConfig config;
  config.max_batch = 4;
  config.flush_deadline_ms = 0;
  config.drift_threshold = 0.15;
  config.health.enabled = true;
  config.health.min_window = 8;
  serve::ServingEngine engine(ensemble_a_.get(), config, 1e300, spot_a,
                              shifted);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());

  // Both signals fire once — one event per poll, score shift before
  // drift in check order — then stay disarmed (hysteresis).
  const auto shift = engine.PollHealth();
  ASSERT_TRUE(shift.has_value());
  EXPECT_EQ(shift->signal, serve::HealthSignal::kScoreShift);
  EXPECT_FALSE(shift->rolled_back);
  const auto drift = engine.PollHealth();
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->signal, serve::HealthSignal::kDrift);
  EXPECT_EQ(drift->verdict, serve::HealthVerdict::kDataDrift);
  ASSERT_FALSE(engine.health_armed(serve::HealthSignal::kScoreShift));
  ASSERT_FALSE(engine.health_armed(serve::HealthSignal::kDrift));
  EXPECT_FALSE(engine.PollHealth().has_value());

  // A canary-rejected candidate (same 1000x-off reference, judged against
  // its own histogram) leaves the generation serving — and must re-arm.
  const core::SpotInit spot_b = CalibratedSpot(ensemble_b_.get(), train_);
  const core::HealthRef bad_ref =
      CalibratedHealth(ensemble_b_.get(), train_, /*score_scale=*/1000.0);
  auto swapped = engine.ReloadArtifact(
      SaveB("rearm_bad.caee", 1e300, &spot_b, &bad_ref));
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.status().message().find("canary rejected candidate"),
            std::string::npos)
      << swapped.status();
  EXPECT_EQ(engine.generation(), 1);

  EXPECT_TRUE(engine.health_armed(serve::HealthSignal::kScoreShift));
  EXPECT_TRUE(engine.health_armed(serve::HealthSignal::kDrift));
  // The still-live excursions fire again on the next polls — the actual
  // point of re-arming.
  const auto shift_again = engine.PollHealth();
  ASSERT_TRUE(shift_again.has_value());
  EXPECT_EQ(shift_again->signal, serve::HealthSignal::kScoreShift);
  const auto drift_again = engine.PollHealth();
  ASSERT_TRUE(drift_again.has_value());
  EXPECT_EQ(drift_again->signal, serve::HealthSignal::kDrift);
  EXPECT_EQ(engine.Stats().score_shift_events, 2);
  EXPECT_EQ(engine.Stats().drift_events, 2);
}

// Drift needs no --health: with health off and drift_threshold > 0 the
// drift signal alone is on. It fires once per excursion, stays quiet while
// the excursion lasts, and fires again after a rejected reload.
TEST_F(HotSwapTest, DriftAlertsWithHealthOff) {
  const auto series = testutil::PlantedSeries(100, 2, 7);
  core::SpotInit spot = CalibratedSpot(ensemble_a_.get(), train_);
  spot.t = 0.0;  // every score exceeds: drift pins at 0.8

  serve::ServeConfig config;
  config.max_batch = 4;
  config.flush_deadline_ms = 0;
  config.drift_threshold = 0.15;
  ASSERT_FALSE(config.health.enabled);
  serve::ServingEngine engine(ensemble_a_.get(), config, 1e300, spot);
  ASSERT_TRUE(engine.OpenStream(1).ok());
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_GE(engine.Stats().drift_window, config.health.min_window);

  const auto fired = engine.PollHealth();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->signal, serve::HealthSignal::kDrift);
  EXPECT_EQ(fired->verdict, serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(fired->generation, 1);
  EXPECT_EQ(fired->value, engine.Stats().drift);
  EXPECT_EQ(fired->threshold, 0.15);
  EXPECT_FALSE(fired->rolled_back);

  // Still excursed: quiet, however often it is polled or scored.
  for (int64_t t = 0; t < 12; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
    EXPECT_FALSE(engine.PollHealth().has_value()) << "poll " << t;
  }

  // A rejected reload (the path does not exist) re-arms it.
  ASSERT_FALSE(engine.ReloadArtifact(TempPath("no_such_artifact.caee")).ok());
  EXPECT_EQ(engine.generation(), 1);
  const auto again = engine.PollHealth();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->signal, serve::HealthSignal::kDrift);
  EXPECT_FALSE(engine.PollHealth().has_value());
  EXPECT_EQ(engine.Stats().drift_events, 2);
}

// The converse: health on and drift off never emits a drift event, even
// while the drift statistic reads far past any sensible threshold.
TEST_F(HotSwapTest, HealthWithDriftOffNeverEmitsDrift) {
  const auto series = testutil::PlantedSeries(100, 2, 7);
  core::SpotInit spot = CalibratedSpot(ensemble_a_.get(), train_);
  spot.t = 0.0;

  serve::ServeConfig config;
  config.max_batch = 4;
  config.flush_deadline_ms = 0;
  config.health.enabled = true;
  config.health.min_window = 8;
  serve::ServingEngine engine(
      ensemble_a_.get(), config, 1e300, spot,
      CalibratedHealth(ensemble_a_.get(), train_, /*score_scale=*/1000.0));
  ASSERT_TRUE(engine.OpenStream(1).ok());
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_GT(engine.Stats().drift, 0.5);

  int64_t events = 0;
  for (int poll = 0; poll < 8; ++poll) {
    if (const auto event = engine.PollHealth(); event.has_value()) {
      ++events;
      EXPECT_NE(event->signal, serve::HealthSignal::kDrift);
    }
  }
  EXPECT_GE(events, 1) << "the score-shift signal should have fired";
  EXPECT_EQ(engine.Stats().drift_events, 0);
}

TEST_F(HotSwapTest, RollbackMidStreamIsBitwisePerGeneration) {
  const auto series = testutil::PlantedSeries(80, 2, 7);
  const auto ref_a = ReferenceScores(ensemble_a_.get(), series);
  const auto ref_b = ReferenceScores(ensemble_b_.get(), series);
  const int64_t w = ensemble_a_->config().window;

  // The candidate's dispersion baseline is ~0: any live member
  // disagreement reads as agreement collapse relative to it — a
  // kModelDegradation verdict the probation must answer with a rollback.
  // Its score histogram is honest, so the dispersion signal is what must
  // fire. canary_min_windows is set beyond any retained count so the
  // candidate is ADOPTED (the bug only shows post-swap here, which is
  // exactly what probation is for).
  const core::HealthRef collapsed = CalibratedHealth(
      ensemble_b_.get(), train_, /*score_scale=*/1.0, /*dispersion=*/1e-9);
  const std::string bad_path =
      SaveB("probation_bad.caee", std::nullopt, nullptr, &collapsed);

  serve::ServeConfig config;
  config.max_batch = 3;
  config.flush_deadline_ms = 0;
  config.health.enabled = true;
  config.health.min_window = 8;
  config.health.canary_min_windows = 1'000'000;  // skip the canary gate
  serve::ServingEngine engine(ensemble_a_.get(), config, std::nullopt,
                              std::nullopt,
                              CalibratedHealth(ensemble_a_.get(), train_));
  ASSERT_TRUE(engine.OpenStream(1).ok());

  std::vector<serve::StreamScore> results;
  const int64_t kSwapAt = 26;
  for (int64_t t = 0; t < kSwapAt; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }

  auto swapped = engine.ReloadArtifact(bad_path);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(engine.generation(), 2);
  EXPECT_TRUE(engine.in_probation());

  // Score on the suspect generation until its health ring reaches
  // min_window, polling like the server does; the dispersion signal must
  // fire and roll the engine back mid-stream.
  std::optional<serve::HealthEvent> event;
  int64_t t = kSwapAt;
  for (; t < series.length() && !event.has_value(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
    event = engine.PollHealth();
  }
  ASSERT_TRUE(event.has_value()) << "health monitor never fired";
  EXPECT_EQ(event->signal, serve::HealthSignal::kDispersion);
  EXPECT_EQ(event->verdict, serve::HealthVerdict::kModelDegradation);
  EXPECT_EQ(event->generation, 2);
  EXPECT_TRUE(event->rolled_back);
  EXPECT_EQ(event->rolled_back_to, 1);
  EXPECT_EQ(engine.generation(), 1);  // the retained generation, original id
  EXPECT_FALSE(engine.in_probation());
  EXPECT_EQ(engine.Stats().rollbacks, 1);
  EXPECT_EQ(engine.Stats().dispersion_events, 1);
  // Rollback re-arms every signal: the one that just fired is armed again
  // for the restored generation.
  EXPECT_TRUE(engine.health_armed(serve::HealthSignal::kDispersion));
  EXPECT_TRUE(engine.health_armed(serve::HealthSignal::kDrift));

  for (; t < series.length(); ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());

  // Exactly-once across the swap AND the rollback, and every score is
  // bitwise the reference of the generation that produced it: generation
  // 1 scores (before the swap and after the rollback) match A, generation
  // 2 scores match B.
  std::map<int64_t, std::pair<double, int64_t>> by_index;
  for (const auto& r : results) {
    ASSERT_TRUE(by_index.emplace(r.index, std::make_pair(r.score,
                                                         r.generation))
                    .second)
        << "index " << r.index << " scored twice";
  }
  ASSERT_EQ(static_cast<int64_t>(by_index.size()), series.length() - (w - 1));
  int64_t gen2 = 0, rolled_back_windows = 0;
  int64_t last_gen2 = -1;
  for (const auto& [index, score_gen] : by_index) {
    const auto& [score, generation] = score_gen;
    ASSERT_TRUE(generation == 1 || generation == 2);
    const auto& ref = generation == 1 ? ref_a : ref_b;
    EXPECT_EQ(score, ref[static_cast<size_t>(index)])
        << "index " << index << " generation " << generation;
    if (generation == 2) {
      ++gen2;
      last_gen2 = index;
    }
  }
  ASSERT_GT(gen2, 0) << "the suspect generation never scored";
  for (const auto& [index, score_gen] : by_index) {
    if (index > last_gen2) ++rolled_back_windows;
  }
  EXPECT_GT(rolled_back_windows, 0) << "no windows scored after rollback";
}

TEST_F(HotSwapTest, ConcurrentPushersNeverDropOrDuplicateAcrossSwaps) {
  const int64_t kPushers = 4, kStreamsPerPusher = 2, kLength = 40;
  const int64_t w = ensemble_a_->config().window;
  const int64_t kStreams = kPushers * kStreamsPerPusher;

  std::vector<ts::TimeSeries> streams;
  std::vector<std::vector<double>> ref_a, ref_b;
  for (int64_t s = 0; s < kStreams; ++s) {
    streams.push_back(testutil::PlantedSeries(
        kLength, 2, 100 + static_cast<uint64_t>(s), {kLength / 2}));
    ref_a.push_back(ReferenceScores(ensemble_a_.get(), streams.back()));
    ref_b.push_back(ReferenceScores(ensemble_b_.get(), streams.back()));
  }
  // Reload alternates B, A, B, ... — generation 1 and every later odd
  // generation scores with A's weights, even generations with B's.
  const std::string path_a = TempPath("concurrent_a.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_a_, path_a).ok());
  const std::string path_b = SaveB("concurrent_b.caee");

  serve::ServeConfig config;
  config.max_batch = 3;
  config.flush_deadline_ms = 0;
  config.num_shards = 4;
  serve::ServingEngine engine(ensemble_a_.get(), config);
  for (int64_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.OpenStream(s).ok());
  }

  std::mutex mu;
  std::vector<serve::StreamScore> all;
  std::atomic<bool> push_failed{false};
  std::vector<std::thread> pushers;
  for (int64_t p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&, p] {
      std::vector<serve::StreamScore> results;
      for (int64_t t = 0; t < kLength; ++t) {
        for (int64_t i = 0; i < kStreamsPerPusher; ++i) {
          const int64_t s = p * kStreamsPerPusher + i;
          if (!engine
                   .Push(s, Row(streams[static_cast<size_t>(s)], t),
                         &results)
                   .ok()) {
            push_failed.store(true);
            return;
          }
        }
        if (t % 8 == 0) std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(mu);
      all.insert(all.end(), results.begin(), results.end());
    });
  }

  const int kReloads = 6;
  for (int r = 0; r < kReloads; ++r) {
    auto swapped = engine.ReloadArtifact(r % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(swapped.ok()) << swapped.status();
    EXPECT_EQ(swapped.value(), r + 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& pusher : pushers) pusher.join();
  ASSERT_FALSE(push_failed.load());
  {
    std::vector<serve::StreamScore> results;
    ASSERT_TRUE(engine.Flush(&results).ok());
    all.insert(all.end(), results.begin(), results.end());
  }

  EXPECT_EQ(engine.generation(), 1 + kReloads);
  EXPECT_EQ(engine.Stats().reloads, kReloads);
  EXPECT_EQ(engine.Stats().failed_reloads, 0);

  // Exactly once per (stream, index), and bitwise equal to the reference
  // of the generation that scored it.
  std::map<std::pair<int64_t, int64_t>, int> seen;
  for (const auto& r : all) {
    ASSERT_GE(r.generation, 1);
    ASSERT_LE(r.generation, 1 + kReloads);
    const auto& ref = r.generation % 2 == 1
                          ? ref_a[static_cast<size_t>(r.stream_id)]
                          : ref_b[static_cast<size_t>(r.stream_id)];
    EXPECT_EQ(r.score, ref[static_cast<size_t>(r.index)])
        << "stream " << r.stream_id << " index " << r.index
        << " generation " << r.generation;
    ++seen[{r.stream_id, r.index}];
  }
  ASSERT_EQ(static_cast<int64_t>(seen.size()),
            kStreams * (kLength - (w - 1)))
      << "dropped windows";
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "stream " << key.first << " index " << key.second
                        << " scored " << count << " times";
  }
}

}  // namespace
}  // namespace caee
