// Plan-vs-autograd bitwise identity: the compiled forward plans
// (infer/plan.h), the ensemble's only scoring engine, must reproduce the
// autograd module trees training runs bit for bit — same kernels, same call
// order, same accumulation (docs/inference.md). The reference below is
// built from code training keeps anyway (WindowEmbedding::Forward,
// Cae::Reconstruct, WindowErrors, Median). Every comparison here is
// EXPECT_EQ on doubles: any reassociation, fused step, or dropped op in the
// plan executor fails loudly. golden_regression_test pins the same contract
// against absolute constants.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/diversity.h"
#include "core/ensemble.h"
#include "core/scoring.h"
#include "core/streaming.h"
#include "infer/arena.h"
#include "serve/serving_engine.h"
#include "test_util.h"
#include "ts/window.h"

namespace caee {
namespace {

// ---------------------------------------------------------------------------
// The autograd reference.
// ---------------------------------------------------------------------------

// Embed a scaled (B, w, D) batch through the frozen embedding's module tree.
Tensor Embed(const core::CaeEnsemble& ensemble, const Tensor& batch) {
  return ensemble.embedding().Forward(ag::Constant(batch))->value();
}

Tensor Reconstruct(const core::CaeEnsemble& ensemble, int64_t member,
                   const Tensor& x) {
  return ensemble.model(member).Reconstruct(ag::Constant(x))->value();
}

// The ensemble's z-score of raw windows: per element, in double precision,
// with the fitted scaler statistics.
Tensor ScaleWindows(const core::CaeEnsemble& ensemble, const Tensor& windows) {
  if (!ensemble.config().rescale_enabled) return windows;
  const std::vector<double>& mean = ensemble.scaler().mean();
  const std::vector<double>& stddev = ensemble.scaler().stddev();
  const int64_t d = windows.dim(2);
  Tensor scaled(windows.shape());
  for (int64_t i = 0; i < windows.numel(); ++i) {
    const size_t j = static_cast<size_t>(i % d);
    scaled[i] = static_cast<float>((windows[i] - mean[j]) / stddev[j]);
  }
  return scaled;
}

// Last-position score (median of the member errors, Eq. 15) and member
// dispersion (median absolute deviation around it, relative to it) of each
// raw window in the batch.
struct OnlineReference {
  std::vector<double> scores;
  std::vector<double> dispersions;
};

OnlineReference ReferenceScoreWindowsLast(const core::CaeEnsemble& ensemble,
                                          const Tensor& windows) {
  const Tensor x = Embed(ensemble, ScaleWindows(ensemble, windows));
  std::vector<std::vector<std::vector<double>>> errors;
  for (int64_t mi = 0; mi < ensemble.num_models(); ++mi) {
    errors.push_back(core::WindowErrors(x, Reconstruct(ensemble, mi, x)));
  }
  OnlineReference ref;
  for (int64_t b = 0; b < windows.dim(0); ++b) {
    std::vector<double> column;
    for (const auto& member : errors) {
      column.push_back(member[static_cast<size_t>(b)].back());
    }
    const double med = core::Median(column);
    std::vector<double> deviations;
    for (const double e : column) deviations.push_back(std::fabs(e - med));
    ref.scores.push_back(med);
    ref.dispersions.push_back(core::Median(deviations) /
                              std::max(med, 1e-12));
  }
  return ref;
}

// The offline scoring paths over `series`, batch by batch in the order the
// ensemble walks them.
struct OfflineReference {
  std::vector<double> scores;
  double mean_reconstruction_error = 0.0;
  double diversity = 0.0;
};

OfflineReference ReferenceOffline(const core::CaeEnsemble& ensemble,
                                  const ts::TimeSeries& series) {
  const auto& config = ensemble.config();
  const ts::TimeSeries scaled = config.rescale_enabled
                                    ? ensemble.scaler().Transform(series)
                                    : series;
  const ts::WindowDataset dataset(scaled, config.window);
  const auto batches = dataset.Batches(config.batch_size);
  const int64_t m = ensemble.num_models();
  std::vector<core::WindowScoreAssembler> assemblers(
      static_cast<size_t>(m),
      core::WindowScoreAssembler(dataset.num_windows(), config.window));
  std::vector<double> partial(static_cast<size_t>(m) * batches.size());
  core::DiversityAccumulator diversity(m);
  for (size_t b = 0; b < batches.size(); ++b) {
    const Tensor x = Embed(ensemble, dataset.GetBatch(batches[b]));
    std::vector<Tensor> outputs;
    for (int64_t mi = 0; mi < m; ++mi) {
      const Tensor recon = Reconstruct(ensemble, mi, x);
      outputs.push_back(recon);
      const auto errors = core::WindowErrors(x, recon);
      for (size_t bi = 0; bi < batches[b].size(); ++bi) {
        assemblers[static_cast<size_t>(mi)].AddWindow(batches[b][bi],
                                                      errors[bi]);
      }
      double acc = 0.0;
      for (int64_t j = 0; j < x.numel(); ++j) {
        const double d = static_cast<double>(x[j]) - recon[j];
        acc += d * d;
      }
      partial[static_cast<size_t>(mi) * batches.size() + b] =
          acc / static_cast<double>(x.numel());
    }
    diversity.AddBatch(outputs);
  }
  OfflineReference ref;
  std::vector<std::vector<double>> per_model;
  for (const auto& a : assemblers) per_model.push_back(a.Finalize());
  ref.scores = core::MedianAcrossModels(per_model);
  double total = 0.0;
  for (const double p : partial) total += p;
  ref.mean_reconstruction_error = total / static_cast<double>(partial.size());
  ref.diversity = diversity.Value();
  return ref;
}

core::EnsembleConfig SmallConfig() {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 1;
  config.window = 8;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;
  config.seed = 11;
  return config;
}

Tensor RandomWindows(int64_t batch, int64_t window, int64_t dims,
                     uint64_t seed) {
  Rng rng(seed);
  Tensor windows(Shape{batch, window, dims});
  for (int64_t i = 0; i < windows.numel(); ++i) {
    windows[i] = static_cast<float>(rng.Gaussian());
  }
  return windows;
}

// Scores the same windows through the plans and the autograd reference and
// demands equality to the last bit, at every batch size and thread count
// the serving layer uses.
void ExpectPlanMatchesReference(core::CaeEnsemble* ensemble, int64_t dims,
                                uint64_t seed) {
  for (const int64_t batch : {int64_t{1}, int64_t{3}, int64_t{16}}) {
    const Tensor windows =
        RandomWindows(batch, ensemble->config().window, dims, seed + batch);
    const OnlineReference ref = ReferenceScoreWindowsLast(*ensemble, windows);
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
      ensemble->set_num_threads(threads);
      auto plan = ensemble->ScoreWindowsLast(windows);
      ASSERT_TRUE(plan.ok()) << plan.status();
      std::vector<double> scores, dispersions;
      ASSERT_TRUE(ensemble
                      ->ScoreWindowsLastInto(windows.data(), batch, &scores,
                                             &dispersions)
                      .ok());
      ASSERT_EQ(plan.value().size(), ref.scores.size());
      ASSERT_EQ(dispersions.size(), ref.dispersions.size());
      for (size_t b = 0; b < ref.scores.size(); ++b) {
        EXPECT_EQ(plan.value()[b], ref.scores[b])
            << "batch=" << batch << " threads=" << threads << " window " << b;
        EXPECT_EQ(scores[b], ref.scores[b]);
        EXPECT_EQ(dispersions[b], ref.dispersions[b])
            << "batch=" << batch << " threads=" << threads << " window " << b;
      }
    }
  }
}

TEST(InferPlanTest, MatchesReferenceOnDefaultArchitecture) {
  auto config = SmallConfig();
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 5)).ok());
  ExpectPlanMatchesReference(&ensemble, dims, 100);
}

TEST(InferPlanTest, MatchesReferenceWithOddDimsAndDeepStack) {
  auto config = SmallConfig();
  config.cae.embed_dim = 7;  // odd embed dim: ragged GEMM edges everywhere
  config.cae.num_layers = 3;
  config.window = 9;
  config.num_models = 4;  // even member count: median midpoint-average path
  const int64_t dims = 5;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(90, dims, 6)).ok());
  ExpectPlanMatchesReference(&ensemble, dims, 200);
}

TEST(InferPlanTest, MatchesReferenceWhenKernelExceedsWindow) {
  auto config = SmallConfig();
  config.cae.kernel = 7;  // kernel > window: padding clips on both sides
  config.window = 4;
  const int64_t dims = 3;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(80, dims, 7)).ok());
  ExpectPlanMatchesReference(&ensemble, dims, 300);
}

TEST(InferPlanTest, MatchesReferenceAcrossAttentionModes) {
  for (const auto mode :
       {core::AttentionMode::kNone, core::AttentionMode::kLastLayer,
        core::AttentionMode::kAllLayers}) {
    auto config = SmallConfig();
    config.cae.attention = mode;
    config.cae.num_layers = 2;
    const int64_t dims = 4;
    core::CaeEnsemble ensemble(config);
    ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(88, dims, 8)).ok());
    ExpectPlanMatchesReference(&ensemble, dims, 400);
  }
}

TEST(InferPlanTest, MatchesReferenceWithoutRescaling) {
  auto config = SmallConfig();
  config.rescale_enabled = false;
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 9)).ok());
  ExpectPlanMatchesReference(&ensemble, dims, 500);
}

TEST(InferPlanTest, MatchesReferenceWithNonDefaultActivations) {
  auto config = SmallConfig();
  config.cae.enc_act = nn::Activation::kTanh;
  config.cae.dec_act = nn::Activation::kSigmoid;
  config.cae.recon_act = nn::Activation::kTanh;
  config.embed_obs_act = nn::Activation::kRelu;
  config.embed_pos_act = nn::Activation::kTanh;
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 10)).ok());
  ExpectPlanMatchesReference(&ensemble, dims, 600);
}

// The offline paths (PerModelScores -> Score, MeanReconstructionError,
// Diversity) also run on the plans; all three must match the reference
// bitwise.
TEST(InferPlanTest, OfflineScoringPathsMatchReference) {
  auto config = SmallConfig();
  config.cae.num_layers = 2;
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 12)).ok());
  const ts::TimeSeries eval = testutil::PlantedSeries(64, dims, 13, {30});
  const OfflineReference ref = ReferenceOffline(ensemble, eval);

  auto scores = ensemble.Score(eval);
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_EQ(scores.value().size(), ref.scores.size());
  for (size_t i = 0; i < ref.scores.size(); ++i) {
    EXPECT_EQ(scores.value()[i], ref.scores[i]) << "observation " << i;
  }
  auto mre = ensemble.MeanReconstructionError(eval);
  ASSERT_TRUE(mre.ok()) << mre.status();
  EXPECT_EQ(mre.value(), ref.mean_reconstruction_error);
  auto div = ensemble.Diversity(eval);
  ASSERT_TRUE(div.ok()) << div.status();
  EXPECT_EQ(div.value(), ref.diversity);
}

// ScoreWindowsLastInto is the serving entry point: same scores as the
// tensor API, and the output vector's capacity is reused across calls.
TEST(InferPlanTest, IntoVariantMatchesAndReusesCapacity) {
  auto config = SmallConfig();
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 14)).ok());

  const Tensor windows = RandomWindows(5, config.window, dims, 900);
  auto reference = ensemble.ScoreWindowsLast(windows);
  ASSERT_TRUE(reference.ok());

  std::vector<double> scores;
  ASSERT_TRUE(
      ensemble.ScoreWindowsLastInto(windows.data(), 5, &scores).ok());
  ASSERT_EQ(scores.size(), reference.value().size());
  for (size_t b = 0; b < scores.size(); ++b) {
    EXPECT_EQ(scores[b], reference.value()[b]);
  }

  const double* data_before = scores.data();
  ASSERT_TRUE(
      ensemble.ScoreWindowsLastInto(windows.data(), 5, &scores).ok());
  EXPECT_EQ(scores.data(), data_before) << "score buffer was reallocated";
  for (size_t b = 0; b < scores.size(); ++b) {
    EXPECT_EQ(scores[b], reference.value()[b]);
  }
}

TEST(InferPlanTest, IntoVariantValidatesArguments) {
  auto config = SmallConfig();
  core::CaeEnsemble unfitted(config);
  std::vector<double> scores;
  float dummy = 0.0f;
  EXPECT_FALSE(unfitted.ScoreWindowsLastInto(&dummy, 1, &scores).ok());

  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 15)).ok());
  EXPECT_FALSE(ensemble.ScoreWindowsLastInto(nullptr, 1, &scores).ok());
  EXPECT_FALSE(ensemble.ScoreWindowsLastInto(&dummy, 0, &scores).ok());
  EXPECT_FALSE(ensemble.ScoreWindowsLastInto(&dummy, 1, nullptr).ok());
}

// The engine's cross-stream batching contract (bitwise equal to dedicated
// per-stream scorers) holds end to end.
TEST(InferPlanTest, ServingEngineMatchesStreamingScorer) {
  auto config = SmallConfig();
  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 16)).ok());

  const ts::TimeSeries stream = testutil::PlantedSeries(40, dims, 17, {25});
  core::StreamingScorer reference(&ensemble);
  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve::ServingEngine engine(&ensemble, serve_config);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  std::vector<serve::StreamScore> results;
  std::vector<double> expected;
  for (int64_t t = 0; t < stream.length(); ++t) {
    std::vector<float> row(static_cast<size_t>(dims));
    for (int64_t j = 0; j < dims; ++j) row[static_cast<size_t>(j)] =
        stream.value(t, j);
    auto ref = reference.Push(row);
    ASSERT_TRUE(ref.ok());
    if (ref.value().has_value()) expected.push_back(*ref.value());
    ASSERT_TRUE(engine.Push(1, row, &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].score, expected[i]) << "window " << i;
  }
}

// Arena lifecycle: slots grow to the shape-walk maximum and stay there —
// re-executing at a smaller batch must not shrink or reallocate.
TEST(InferPlanTest, ArenaIsGrowOnly) {
  infer::Arena arena;
  float* big = arena.Slot(0, 1024);
  EXPECT_EQ(arena.bytes(), 1024 * sizeof(float));
  float* small = arena.Slot(0, 16);
  EXPECT_EQ(small, big) << "shrinking request must reuse the buffer";
  EXPECT_EQ(arena.bytes(), 1024 * sizeof(float));
  arena.Slot(3, 8);
  EXPECT_EQ(arena.num_slots(), 4u);
  EXPECT_EQ(arena.bytes(), (1024 + 8) * sizeof(float));
}

}  // namespace
}  // namespace caee
