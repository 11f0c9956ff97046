#include <gtest/gtest.h>

#include <string>

#include "core/ensemble.h"
#include "core/scoring.h"
#include "test_util.h"

namespace caee {
namespace {

core::EnsembleConfig TinyConfig() {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 6;
  cfg.cae.num_layers = 1;
  cfg.window = 6;
  cfg.num_models = 3;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 32;
  cfg.max_train_windows = 96;
  cfg.lambda = 1.0f;
  cfg.beta = 0.5f;
  cfg.seed = 7;
  return cfg;
}

ts::TimeSeries TrainSeries(uint64_t seed = 3) {
  return testutil::PlantedSeries(300, 2, seed);
}

TEST(EnsembleTest, FitProducesConfiguredModelCount) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  EXPECT_TRUE(ensemble.fitted());
  EXPECT_EQ(ensemble.num_models(), 3);
  EXPECT_GT(ensemble.train_stats().parameters_per_model, 0);
  EXPECT_GT(ensemble.train_stats().train_seconds, 0.0);
}

TEST(EnsembleTest, ScoreBeforeFitFails) {
  core::CaeEnsemble ensemble(TinyConfig());
  auto scores = ensemble.Score(TrainSeries());
  EXPECT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EnsembleTest, FitRejectsSeriesShorterThanWindow) {
  core::CaeEnsemble ensemble(TinyConfig());
  ts::TimeSeries tiny(3, 2);
  EXPECT_EQ(ensemble.Fit(tiny).code(), StatusCode::kInvalidArgument);
}

TEST(EnsembleTest, ScoresCoverEveryObservation) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(150, 2, 5, {70});
  auto scores = ensemble.Score(test);
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->size(), 150u);
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(EnsembleTest, DetectsPlantedSpike) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(200, 2, 9, {120}, 10.0);
  auto scores = ensemble.Score(test).value();
  // The planted outlier should rank in the top few percent.
  int higher = 0;
  for (double s : scores) higher += (s > scores[120]);
  EXPECT_LT(higher, 10);
}

TEST(EnsembleTest, PerModelScoresMatchMedianScore) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(100, 2, 11);
  auto per_model = ensemble.PerModelScores(test).value();
  auto combined = ensemble.Score(test).value();
  ASSERT_EQ(per_model.size(), 3u);
  auto expected = core::MedianAcrossModels(per_model);
  ASSERT_EQ(expected.size(), combined.size());
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_DOUBLE_EQ(combined[i], expected[i]);
  }
}

// Fig. 16's protocol: the ensemble grows one member at a time, so an M=k
// fit trains exactly the first k members of an M=4 fit, bit for bit.
// `eval_gauntlet --models k` reproduces the figure on this property.
void ExpectSmallerFitsArePrefixes(bool diversity_and_transfer) {
  core::EnsembleConfig cfg = TinyConfig();
  cfg.diversity_enabled = diversity_and_transfer;
  cfg.transfer_enabled = diversity_and_transfer;
  cfg.num_models = 4;
  core::CaeEnsemble full(cfg);
  ASSERT_TRUE(full.Fit(TrainSeries()).ok());
  const ts::TimeSeries test = testutil::PlantedSeries(80, 2, 17, {40});
  const auto all = full.PerModelScores(test).value();
  ASSERT_EQ(all.size(), 4u);
  for (int64_t k = 1; k <= 3; ++k) {
    SCOPED_TRACE("M=" + std::to_string(k));
    cfg.num_models = k;
    core::CaeEnsemble prefix(cfg);
    ASSERT_TRUE(prefix.Fit(TrainSeries()).ok());
    const auto streams = prefix.PerModelScores(test).value();
    ASSERT_EQ(streams.size(), static_cast<size_t>(k));
    for (size_t m = 0; m < streams.size(); ++m) {
      ASSERT_EQ(streams[m].size(), all[m].size());
      for (size_t i = 0; i < streams[m].size(); ++i) {
        ASSERT_EQ(streams[m][i], all[m][i])
            << "member " << m << ", position " << i;
      }
    }
  }
}

TEST(EnsembleTest, SmallerDiversityDrivenFitIsAPrefixOfALargerOne) {
  ExpectSmallerFitsArePrefixes(/*diversity_and_transfer=*/true);
}

TEST(EnsembleTest, SmallerIndependentFitIsAPrefixOfALargerOne) {
  ExpectSmallerFitsArePrefixes(/*diversity_and_transfer=*/false);
}

TEST(EnsembleTest, DeterministicAcrossRuns) {
  core::CaeEnsemble a(TinyConfig());
  core::CaeEnsemble b(TinyConfig());
  ASSERT_TRUE(a.Fit(TrainSeries()).ok());
  ASSERT_TRUE(b.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(80, 2, 13);
  auto sa = a.Score(test).value();
  auto sb = b.Score(test).value();
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(EnsembleTest, SeedChangesScores) {
  core::EnsembleConfig cfg = TinyConfig();
  core::CaeEnsemble a(cfg);
  cfg.seed = 999;
  core::CaeEnsemble b(cfg);
  ASSERT_TRUE(a.Fit(TrainSeries()).ok());
  ASSERT_TRUE(b.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(80, 2, 13);
  auto sa = a.Score(test).value();
  auto sb = b.Score(test).value();
  int identical = 0;
  for (size_t i = 0; i < sa.size(); ++i) identical += (sa[i] == sb[i]);
  EXPECT_LT(identical, static_cast<int>(sa.size()) / 2);
}

TEST(EnsembleTest, DiversityTrainingIncreasesDivF) {
  // Table 6's claim: the diversity objective yields a more diverse ensemble
  // than independently-seeded training. Enough epochs are needed for the
  // independently-initialised models to converge toward the same function
  // (their diversity is an underfitting artefact early on) while the driven
  // ensemble is pushed apart by the -λK term.
  core::EnsembleConfig with = TinyConfig();
  with.epochs_per_model = 8;
  with.lambda = 8.0f;
  core::EnsembleConfig without = with;
  without.diversity_enabled = false;
  without.transfer_enabled = false;

  core::CaeEnsemble e_with(with);
  core::CaeEnsemble e_without(without);
  ts::TimeSeries train = TrainSeries();
  ASSERT_TRUE(e_with.Fit(train).ok());
  ASSERT_TRUE(e_without.Fit(train).ok());

  ts::TimeSeries test = testutil::PlantedSeries(120, 2, 17);
  const double div_with = e_with.Diversity(test).value();
  const double div_without = e_without.Diversity(test).value();
  EXPECT_GT(div_with, div_without);
}

TEST(EnsembleTest, MeanReconstructionErrorIsFinitePositive) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  const double err =
      ensemble.MeanReconstructionError(testutil::PlantedSeries(90, 2, 19))
          .value();
  EXPECT_GT(err, 0.0);
  EXPECT_TRUE(std::isfinite(err));
}

TEST(EnsembleTest, TrainingLossDecreasesForFirstModel) {
  core::EnsembleConfig cfg = TinyConfig();
  cfg.num_models = 1;
  cfg.epochs_per_model = 6;
  core::CaeEnsemble ensemble(cfg);
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  const auto& losses = ensemble.train_stats().per_model_epoch_loss[0];
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(EnsembleTest, EarlyStoppingShortensTraining) {
  core::EnsembleConfig slow = TinyConfig();
  slow.num_models = 1;
  slow.epochs_per_model = 10;
  core::EnsembleConfig fast = slow;
  fast.early_stop_rel_tol = 0.5f;  // aggressive: stop on <50% improvement

  core::CaeEnsemble e_slow(slow);
  core::CaeEnsemble e_fast(fast);
  ASSERT_TRUE(e_slow.Fit(TrainSeries()).ok());
  ASSERT_TRUE(e_fast.Fit(TrainSeries()).ok());
  EXPECT_LT(e_fast.train_stats().per_model_epoch_loss[0].size(),
            e_slow.train_stats().per_model_epoch_loss[0].size());
}

TEST(EnsembleTest, RescaleDisabledStillWorks) {
  core::EnsembleConfig cfg = TinyConfig();
  cfg.rescale_enabled = false;  // Table 5 "No re-scaling" ablation
  core::CaeEnsemble ensemble(cfg);
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  auto scores = ensemble.Score(testutil::PlantedSeries(60, 2, 21));
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 60u);
}

TEST(EnsembleTest, DimensionMismatchRejectedAtScoreTime) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  ts::TimeSeries wrong(100, 5);
  EXPECT_FALSE(ensemble.Score(wrong).ok());
}

TEST(EnsembleTest, ScoreWindowLastMatchesBatchPath) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  ts::TimeSeries test = testutil::PlantedSeries(60, 2, 23);
  auto batch_scores = ensemble.Score(test).value();

  const int64_t w = ensemble.config().window;
  // Score observation t = 30 via the streaming single-window path.
  Tensor window(Shape{1, w, 2});
  for (int64_t k = 0; k < w; ++k) {
    for (int64_t j = 0; j < 2; ++j) {
      window.at(0, k, j) = test.value(30 - w + 1 + k, j);
    }
  }
  const double single = ensemble.ScoreWindowLast(window).value();
  EXPECT_NEAR(single, batch_scores[30], 1e-6);
}

TEST(EnsembleTest, ScoreWindowLastRejectsBadShape) {
  core::CaeEnsemble ensemble(TinyConfig());
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  Tensor bad(Shape{1, 3, 2});  // wrong window length
  EXPECT_FALSE(ensemble.ScoreWindowLast(bad).ok());
}

TEST(EnsembleTest, SingleModelEnsembleIsPlainCae) {
  core::EnsembleConfig cfg = TinyConfig();
  cfg.num_models = 1;
  cfg.diversity_enabled = false;
  cfg.transfer_enabled = false;
  core::CaeEnsemble ensemble(cfg);
  ASSERT_TRUE(ensemble.Fit(TrainSeries()).ok());
  EXPECT_EQ(ensemble.num_models(), 1);
  EXPECT_EQ(ensemble.Diversity(testutil::PlantedSeries(60, 2, 25)).value(),
            0.0);
}

}  // namespace
}  // namespace caee
