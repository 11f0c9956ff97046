// Property-based sweeps: invariants that must hold across a grid of shapes,
// seeds, and configurations (parameterised TEST_P suites).

#include <cmath>

#include <gtest/gtest.h>

#include "core/cae.h"
#include "core/ensemble.h"
#include "core/scoring.h"
#include "metrics/metrics.h"
#include "nn/conv1d.h"
#include "nn/rnn.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "ts/scaler.h"
#include "ts/window.h"

namespace caee {
namespace {

// ---------------------------------------------------------------------------
// Conv1d shape / padding identities across a shape grid.
// ---------------------------------------------------------------------------

struct ConvShape {
  int64_t batch, width, cin, cout, kernel;
};

class ConvShapeTest : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvShapeTest, SamePaddingEqualsManualZeroPadPlusValid) {
  const auto p = GetParam();
  Rng rng(p.batch * 131 + p.width * 17 + p.kernel);
  Tensor x = Tensor::Randn({p.batch, p.width, p.cin}, &rng);
  Tensor w = Tensor::Randn({p.cout, p.kernel, p.cin}, &rng);
  Tensor bias = Tensor::Randn({p.cout}, &rng);
  const int64_t pl = (p.kernel - 1) / 2;
  const int64_t pr = p.kernel - 1 - pl;

  Tensor same = ops::Conv1d(x, w, bias, pl, pr);

  // Manually zero-pad along time, then run a valid convolution.
  Tensor padded(Shape{p.batch, p.width + pl + pr, p.cin});
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t t = 0; t < p.width; ++t) {
      for (int64_t c = 0; c < p.cin; ++c) {
        padded.at(b, t + pl, c) = x.at(b, t, c);
      }
    }
  }
  Tensor valid = ops::Conv1d(padded, w, bias, 0, 0);
  EXPECT_TRUE(AllClose(same, valid, 1e-5f, 1e-6f));
}

TEST_P(ConvShapeTest, OutputShapeFormulaHolds) {
  const auto p = GetParam();
  Rng rng(3);
  Tensor x = Tensor::Randn({p.batch, p.width, p.cin}, &rng);
  Tensor w = Tensor::Randn({p.cout, p.kernel, p.cin}, &rng);
  Tensor bias(Shape{p.cout});
  for (int64_t pl : {int64_t{0}, p.kernel - 1}) {
    Tensor y = ops::Conv1d(x, w, bias, pl, 0);
    EXPECT_EQ(y.dim(1), p.width + pl - p.kernel + 1);
    EXPECT_EQ(y.dim(2), p.cout);
  }
}

TEST_P(ConvShapeTest, LinearityInInput) {
  // conv(a*x) + conv(b*x) with zero bias == conv((a+b)*x).
  const auto p = GetParam();
  Rng rng(4);
  Tensor x = Tensor::Randn({p.batch, p.width, p.cin}, &rng);
  Tensor w = Tensor::Randn({p.cout, p.kernel, p.cin}, &rng);
  Tensor zero_bias(Shape{p.cout});
  Tensor y1 = ops::Conv1d(ops::Scale(x, 2.0f), w, zero_bias, 1, 1);
  Tensor y2 = ops::Conv1d(ops::Scale(x, 3.0f), w, zero_bias, 1, 1);
  Tensor sum = ops::Add(y1, y2);
  Tensor direct = ops::Conv1d(ops::Scale(x, 5.0f), w, zero_bias, 1, 1);
  EXPECT_TRUE(AllClose(sum, direct, 1e-3f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, ConvShapeTest,
    ::testing::Values(ConvShape{1, 4, 1, 1, 3}, ConvShape{2, 8, 3, 5, 3},
                      ConvShape{3, 7, 2, 2, 5}, ConvShape{1, 16, 4, 4, 7},
                      ConvShape{2, 10, 5, 3, 9}, ConvShape{4, 5, 1, 6, 3}));

// ---------------------------------------------------------------------------
// Softmax invariances across seeds.
// ---------------------------------------------------------------------------

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, SoftmaxShiftInvariant) {
  Rng rng(GetParam());
  Tensor x = Tensor::Randn({4, 6}, &rng, 3.0f);
  Tensor shifted = x;
  for (int64_t r = 0; r < 4; ++r) {
    const float c = static_cast<float>(rng.Uniform(-50.0, 50.0));
    for (int64_t j = 0; j < 6; ++j) shifted.at(r, j) += c;
  }
  EXPECT_TRUE(AllClose(ops::SoftmaxLastDim(x), ops::SoftmaxLastDim(shifted),
                       1e-4f, 1e-5f));
}

TEST_P(SeedSweepTest, MatMulTransposeConsistency) {
  // (A B)^T == B^T A^T on random matrices.
  Rng rng(GetParam() + 1000);
  Tensor a = Tensor::Randn({4, 5}, &rng);
  Tensor b = Tensor::Randn({5, 3}, &rng);
  Tensor ab_t = ops::Transpose2D(ops::MatMul(a, b));
  Tensor bt_at = ops::MatMul(b, a, /*trans_a=*/true, /*trans_b=*/true);
  EXPECT_TRUE(AllClose(ab_t, bt_at, 1e-4f, 1e-5f));
}

TEST_P(SeedSweepTest, ScalerIdempotentOnTransformed) {
  // Fitting a scaler on already-z-scored data must give ~identity transform.
  Rng rng(GetParam() + 2000);
  ts::TimeSeries s(300, 3);
  for (int64_t t = 0; t < 300; ++t) {
    for (int64_t j = 0; j < 3; ++j) {
      s.value(t, j) = static_cast<float>(rng.Gaussian(j * 2.0, 1.0 + j));
    }
  }
  ts::Scaler first;
  first.Fit(s);
  ts::TimeSeries z = first.Transform(s);
  ts::Scaler second;
  second.Fit(z);
  ts::TimeSeries z2 = second.Transform(z);
  for (int64_t t = 0; t < 300; t += 37) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(z.value(t, j), z2.value(t, j), 1e-3);
    }
  }
}

TEST_P(SeedSweepTest, MedianBetweenMinAndMax) {
  Rng rng(GetParam() + 3000);
  std::vector<double> values;
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 20));
  for (int i = 0; i < n; ++i) values.push_back(rng.Gaussian(0.0, 10.0));
  const double med = core::Median(values);
  EXPECT_GE(med, *std::min_element(values.begin(), values.end()));
  EXPECT_LE(med, *std::max_element(values.begin(), values.end()));
}

TEST_P(SeedSweepTest, TopKFlagsAtMostKPercent) {
  Rng rng(GetParam() + 4000);
  std::vector<double> scores(500);
  for (auto& s : scores) s = rng.Gaussian();
  for (double k : {1.0, 5.0, 10.0, 50.0}) {
    const double thr = metrics::TopKThreshold(scores, k);
    int flagged = 0;
    for (double s : scores) flagged += (s > thr);
    EXPECT_LE(flagged, static_cast<int>(500 * k / 100.0) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Window dataset properties across (length, window) grid.
// ---------------------------------------------------------------------------

struct WindowCase {
  int64_t length, window;
};

class WindowPropertyTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowPropertyTest, CountsAndCoverage) {
  const auto p = GetParam();
  ts::TimeSeries s(p.length, 2);
  for (int64_t t = 0; t < p.length; ++t) {
    s.value(t, 0) = static_cast<float>(t);
  }
  ts::WindowDataset ds(s, p.window);
  EXPECT_EQ(ds.num_windows(), p.length - p.window + 1);
  // Assembler covers exactly the series length.
  core::WindowScoreAssembler a(ds.num_windows(), p.window);
  EXPECT_EQ(a.num_observations(), p.length);
  // Every window's content matches the source series.
  for (int64_t i = 0; i < ds.num_windows(); i += std::max<int64_t>(1, ds.num_windows() / 7)) {
    Tensor w = ds.GetWindow(i);
    for (int64_t t = 0; t < p.window; ++t) {
      EXPECT_EQ(w.at(0, t, 0), static_cast<float>(i + t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, WindowPropertyTest,
                         ::testing::Values(WindowCase{10, 2}, WindowCase{10, 10},
                                           WindowCase{64, 16},
                                           WindowCase{100, 3},
                                           WindowCase{33, 32}));

// ---------------------------------------------------------------------------
// Parameter transfer: Bernoulli(beta) fraction statistics.
// ---------------------------------------------------------------------------

class TransferTest : public ::testing::TestWithParam<float> {};

TEST_P(TransferTest, FractionApproximatesBeta) {
  const float beta = GetParam();
  Rng rng_a(1), rng_b(2);
  core::CaeConfig cfg;
  cfg.embed_dim = 12;
  cfg.num_layers = 2;
  core::Cae from(cfg, &rng_a);
  core::Cae to(cfg, &rng_b);
  Rng transfer_rng(99);
  const double fraction =
      core::TransferParameters(from, &to, beta, &transfer_rng);
  EXPECT_NEAR(fraction, beta, 0.05);
}

TEST_P(TransferTest, TransferredValuesMatchSource) {
  const float beta = GetParam();
  Rng rng_a(3), rng_b(4);
  core::CaeConfig cfg;
  cfg.embed_dim = 8;
  cfg.num_layers = 1;
  core::Cae from(cfg, &rng_a);
  core::Cae to(cfg, &rng_b);
  Rng transfer_rng(5);
  core::TransferParameters(from, &to, beta, &transfer_rng);
  // Every destination scalar now equals either its old value or the source.
  auto src = from.NamedParameters();
  auto dst = to.NamedParameters();
  Rng rng_b2(4);
  core::Cae original(cfg, &rng_b2);  // same seed => the pre-transfer values
  auto orig = original.NamedParameters();
  int64_t matches_source = 0, matches_original = 0, other = 0;
  for (size_t i = 0; i < src.size(); ++i) {
    const Tensor& s = src[i].second->value();
    const Tensor& d = dst[i].second->value();
    const Tensor& o = orig[i].second->value();
    for (int64_t j = 0; j < s.numel(); ++j) {
      if (d[j] == s[j]) {
        ++matches_source;
      } else if (d[j] == o[j]) {
        ++matches_original;
      } else {
        ++other;
      }
    }
  }
  EXPECT_EQ(other, 0);
  if (beta > 0.0f) {
    EXPECT_GT(matches_source, 0);
  }
  if (beta < 1.0f) {
    EXPECT_GT(matches_original, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, TransferTest,
                         ::testing::Values(0.0f, 0.2f, 0.5f, 0.8f, 1.0f));

// ---------------------------------------------------------------------------
// CAE decoder causality across kernel sizes and layer counts.
// ---------------------------------------------------------------------------

struct CaeShape {
  int64_t layers, kernel;
};

class CaeCausalityTest : public ::testing::TestWithParam<CaeShape> {};

TEST_P(CaeCausalityTest, NoAttentionFirstPositionIgnoresDistantFuture) {
  const auto p = GetParam();
  core::CaeConfig cfg;
  cfg.embed_dim = 4;
  cfg.num_layers = p.layers;
  cfg.kernel = p.kernel;
  cfg.attention = core::AttentionMode::kNone;
  Rng rng(7);
  core::Cae cae(cfg, &rng);

  // Receptive field at position 0 through the same-padded encoder: each
  // encoder layer applies TWO same-padded convolutions (the GLU's gate conv
  // plus the main conv), each extending the halo by (kernel-1)/2 on the
  // right. Pick w so the last observation lies beyond it.
  const int64_t halo = p.layers * 2 * ((p.kernel - 1) / 2);
  const int64_t w = halo + 4;
  Rng data_rng(8);
  Tensor x = Tensor::Randn({1, w, 4}, &data_rng);
  ag::Var y1 = cae.Reconstruct(ag::Constant(x));
  Tensor x2 = x;
  x2.at(0, w - 1, 0) += 10.0f;
  ag::Var y2 = cae.Reconstruct(ag::Constant(x2));
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(y1->value().at(0, 0, c), y2->value().at(0, 0, c), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CaeCausalityTest,
                         ::testing::Values(CaeShape{1, 3}, CaeShape{2, 3},
                                           CaeShape{1, 5}, CaeShape{2, 5},
                                           CaeShape{3, 3}));

// ---------------------------------------------------------------------------
// LSTM/GRU sequence-length stability sweep.
// ---------------------------------------------------------------------------

class RnnLengthTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(RnnLengthTest, StatesRemainFiniteOverLongRollouts) {
  const int64_t steps = GetParam();
  Rng rng(11);
  nn::LstmCell lstm(3, 6, &rng);
  nn::GruCell gru(3, 6, &rng);
  auto s = lstm.InitialState(2);
  ag::Var h = gru.InitialState(2);
  Rng data_rng(12);
  for (int64_t t = 0; t < steps; ++t) {
    ag::Var x = ag::Constant(Tensor::Randn({2, 3}, &data_rng));
    s = lstm.Forward(x, s);
    h = gru.Forward(x, h);
  }
  for (int64_t i = 0; i < s.h->value().numel(); ++i) {
    EXPECT_TRUE(std::isfinite(s.h->value()[i]));
    EXPECT_TRUE(std::isfinite(h->value()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RnnLengthTest,
                         ::testing::Values(1, 8, 32, 128));

}  // namespace
}  // namespace caee
