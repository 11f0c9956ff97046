// Conformance test over the full detector registry: every name in
// eval::AllDetectorNames() and every CAE-Ensemble ablation variant
// (eval::CaeEnsembleVariantNames()) must construct, fit on a tiny fixture,
// and score both splits with finite values of the right length — and do so
// deterministically across two independently-seeded runs. The gauntlet
// (src/eval/gauntlet.cc) calls exactly this surface for every detector it
// runs, so a new baseline or variant that violates any of these properties
// would otherwise break EVAL_9.json generation or an ablation run silently.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/generators.h"
#include "eval/detector.h"
#include "ts/time_series.h"

namespace caee {
namespace {

eval::SuiteConfig TinySuite() {
  eval::SuiteConfig s;
  s.window = 8;
  s.embed_dim = 6;
  s.cae_layers = 1;
  s.num_models = 2;
  s.epochs_per_model = 1;
  s.rnn_hidden = 8;
  s.rnn_epochs = 1;
  s.ae_epochs = 2;
  s.max_train_windows = 64;
  s.seed = 21;
  return s;
}

// One shared fixture for the whole registry: small but long enough for
// every windowed detector (window 8) to form multiple batches.
ts::Dataset Fixture() {
  auto profile = data::SmdProfile(/*scale=*/0.1, /*seed=*/33);
  profile.dims = 3;
  auto ds = data::Generate(profile);
  ds.name = "conformance";
  return ds;
}

std::vector<std::string> RegistryNames() {
  std::vector<std::string> names = eval::AllDetectorNames();
  for (const auto& name : eval::CaeEnsembleVariantNames()) {
    names.push_back(name);
  }
  return names;
}

struct ScoredRun {
  std::vector<double> train;
  std::vector<double> test;
};

ScoredRun FitAndScore(const std::string& name, const ts::Dataset& ds) {
  auto detector = eval::MakeDetector(name, TinySuite());
  EXPECT_TRUE(detector.ok()) << name << ": " << detector.status();
  Status fit = (*detector)->Fit(ds.train);
  EXPECT_TRUE(fit.ok()) << name << ": " << fit;
  ScoredRun run;
  auto test_scores = (*detector)->Score(ds.test);
  EXPECT_TRUE(test_scores.ok()) << name << ": " << test_scores.status();
  run.test = std::move(*test_scores);
  // The gauntlet's unsupervised calibration needs a training-score pass
  // from the already-fitted detector; conformance covers it too.
  auto train_scores = (*detector)->Score(ds.train);
  EXPECT_TRUE(train_scores.ok()) << name << ": " << train_scores.status();
  run.train = std::move(*train_scores);
  return run;
}

TEST(DetectorConformanceTest, EveryDetectorScoresFiniteAndFullLength) {
  const auto ds = Fixture();
  for (const auto& name : RegistryNames()) {
    SCOPED_TRACE(name);
    const auto run = FitAndScore(name, ds);
    ASSERT_EQ(static_cast<int64_t>(run.test.size()), ds.test.length());
    ASSERT_EQ(static_cast<int64_t>(run.train.size()), ds.train.length());
    for (double s : run.test) ASSERT_TRUE(std::isfinite(s));
    for (double s : run.train) ASSERT_TRUE(std::isfinite(s));
    // A constant score vector ranks nothing; every detector must produce
    // at least two distinct values on a series with injected anomalies.
    bool distinct = false;
    for (double s : run.test) distinct |= s != run.test.front();
    EXPECT_TRUE(distinct) << "constant score vector";
  }
}

TEST(DetectorConformanceTest, EveryDetectorIsDeterministicAcrossRuns) {
  const auto ds = Fixture();
  for (const auto& name : RegistryNames()) {
    SCOPED_TRACE(name);
    const auto first = FitAndScore(name, ds);
    const auto second = FitAndScore(name, ds);
    ASSERT_EQ(first.test.size(), second.test.size());
    for (size_t i = 0; i < first.test.size(); ++i) {
      ASSERT_EQ(first.test[i], second.test[i]) << "test score diverged at "
                                               << i;
    }
    for (size_t i = 0; i < first.train.size(); ++i) {
      ASSERT_EQ(first.train[i], second.train[i])
          << "train score diverged at " << i;
    }
  }
}

}  // namespace
}  // namespace caee
