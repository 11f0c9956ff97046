// Property tests for the optimized kernel layer (src/kernels/): the blocked
// SGEMM core and the im2col Conv1d passes are compared against the naive
// kernels::reference::* loops across randomized shapes — including K > W,
// cin = 1, odd sizes, and empty-padding edges. Kernels run on their
// caller's thread, so no thread count enters their results (policy
// reference: docs/numeric-contract.md). Runs under ASan/UBSan in CI like
// every other test binary.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/conv1d.h"
#include "kernels/gemm.h"
#include "kernels/reference.h"
#include "kernels/scratch.h"
#include "tensor/tensor_ops.h"

namespace caee {
namespace {

// Optimized-vs-reference tolerance: both are float kernels, they only differ
// in accumulation order, so disagreement is a few ulps scaled by the
// reduction length.
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-5f;

// MatMul ---------------------------------------------------------------------

TEST(KernelsGemmTest, MatchesReferenceAcrossRandomShapesAndTransposes) {
  Rng rng(101);
  for (int iter = 0; iter < 60; ++iter) {
    const int64_t n = rng.UniformInt(1, 41);
    const int64_t k = rng.UniformInt(1, 41);
    const int64_t m = rng.UniformInt(1, 41);
    const bool trans_a = rng.Bernoulli(0.5);
    const bool trans_b = rng.Bernoulli(0.5);
    Tensor a = trans_a ? Tensor::Randn({k, n}, &rng) : Tensor::Randn({n, k}, &rng);
    Tensor b = trans_b ? Tensor::Randn({m, k}, &rng) : Tensor::Randn({k, m}, &rng);

    Tensor got = ops::MatMul(a, b, trans_a, trans_b);

    Tensor want = Tensor::Uninitialized(Shape{n, m});
    kernels::reference::MatMul(a.data(), a.dim(1), trans_a, b.data(), b.dim(1),
                               trans_b, want.data(), n, m, k);
    EXPECT_TRUE(AllClose(got, want, kRtol, kAtol))
        << "n=" << n << " k=" << k << " m=" << m << " ta=" << trans_a
        << " tb=" << trans_b;
  }
}

TEST(KernelsGemmTest, TileEdgeSizesExactlyCoverBlockBoundaries) {
  // Sizes straddling the kGemmNr column-panel and k-panel boundaries, where
  // full and edge micro-kernels meet.
  Rng rng(102);
  const int64_t sizes[] = {1,
                           3,
                           kernels::kGemmNr - 1,
                           kernels::kGemmNr,
                           kernels::kGemmNr + 1,
                           2 * kernels::kGemmNr,
                           33};
  for (int64_t n : sizes) {
    for (int64_t m : sizes) {
      const int64_t k = 1 + (n + m) % 37;
      Tensor a = Tensor::Randn({n, k}, &rng);
      Tensor b = Tensor::Randn({k, m}, &rng);
      Tensor got = ops::MatMul(a, b);
      Tensor want = Tensor::Uninitialized(Shape{n, m});
      kernels::reference::MatMul(a.data(), k, false, b.data(), m, false,
                                 want.data(), n, m, k);
      EXPECT_TRUE(AllClose(got, want, kRtol, kAtol)) << n << "x" << k << "x"
                                                     << m;
    }
  }
}

TEST(KernelsGemmTest, LongReductionCrossesKcPanels) {
  Rng rng(103);
  const int64_t k = kernels::kGemmKc * 2 + 17;  // three k-panels
  Tensor a = Tensor::Randn({5, k}, &rng, 0.1f);
  Tensor b = Tensor::Randn({k, 9}, &rng, 0.1f);
  Tensor got = ops::MatMul(a, b);
  Tensor want = Tensor::Uninitialized(Shape{5, 9});
  kernels::reference::MatMul(a.data(), k, false, b.data(), 9, false,
                             want.data(), 5, 9, k);
  EXPECT_TRUE(AllClose(got, want, kRtol, kAtol));
}

TEST(KernelsGemmTest, BatchedMatMulMatchesPerBatchReference) {
  Rng rng(104);
  for (int iter = 0; iter < 20; ++iter) {
    const int64_t bs = rng.UniformInt(1, 6);
    const int64_t n = rng.UniformInt(1, 13);
    const int64_t k = rng.UniformInt(1, 13);
    const int64_t m = rng.UniformInt(1, 13);
    const bool trans_a = rng.Bernoulli(0.5);
    const bool trans_b = rng.Bernoulli(0.5);
    Tensor a = trans_a ? Tensor::Randn({bs, k, n}, &rng)
                       : Tensor::Randn({bs, n, k}, &rng);
    Tensor b = trans_b ? Tensor::Randn({bs, m, k}, &rng)
                       : Tensor::Randn({bs, k, m}, &rng);
    Tensor got = ops::BatchedMatMul(a, b, trans_a, trans_b);
    for (int64_t bb = 0; bb < bs; ++bb) {
      Tensor want = Tensor::Uninitialized(Shape{n, m});
      kernels::reference::MatMul(a.data() + bb * a.dim(1) * a.dim(2), a.dim(2),
                                 trans_a, b.data() + bb * b.dim(1) * b.dim(2),
                                 b.dim(2), trans_b, want.data(), n, m, k);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < m; ++j) {
          EXPECT_NEAR(got.at(bb, i, j), want.at(i, j),
                      kAtol + kRtol * std::fabs(want.at(i, j)));
        }
      }
    }
  }
}

// Conv1d ---------------------------------------------------------------------

struct ConvShape {
  int64_t b, w, cin, cout, k, pl, pr;
};

// Randomized shapes incl. K > W (heavy padding), cin = 1, odd sizes, and the
// empty-padding (valid conv) edge. out_w >= 1 guaranteed by construction.
std::vector<ConvShape> RandomConvShapes(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<ConvShape> shapes;
  while (static_cast<int>(shapes.size()) < count) {
    ConvShape s;
    s.b = rng.UniformInt(1, 4);
    s.w = rng.UniformInt(1, 13);
    s.cin = rng.UniformInt(1, 8);
    s.cout = rng.UniformInt(1, 8);
    s.k = rng.UniformInt(1, s.w + 3);  // allows K > W
    s.pl = rng.UniformInt(0, s.k - 1);
    s.pr = rng.UniformInt(0, s.k - 1);
    if (s.w + s.pl + s.pr - s.k + 1 < 1) continue;  // invalid: resample
    shapes.push_back(s);
  }
  // Pin the named edge cases on top of the random sweep.
  shapes.push_back({2, 3, 1, 4, 7, 3, 3});   // K > W, cin = 1
  shapes.push_back({1, 9, 3, 5, 3, 0, 0});   // empty padding (valid conv)
  shapes.push_back({3, 7, 5, 3, 1, 0, 0});   // k = 1, odd sizes
  shapes.push_back({1, 1, 1, 1, 1, 0, 0});   // minimal everything
  shapes.push_back({2, 4, 3, 2, 4, 3, 0});   // causal-style left-only pad
  return shapes;
}

TEST(KernelsConv1dTest, ForwardMatchesReference) {
  Rng rng(201);
  for (const ConvShape& s : RandomConvShapes(7, 40)) {
    const int64_t out_w = s.w + s.pl + s.pr - s.k + 1;
    Tensor x = Tensor::Randn({s.b, s.w, s.cin}, &rng);
    Tensor w = Tensor::Randn({s.cout, s.k, s.cin}, &rng);
    Tensor bias = Tensor::Randn({s.cout}, &rng);
    Tensor got = ops::Conv1d(x, w, bias, s.pl, s.pr);
    Tensor want = Tensor::Uninitialized(Shape{s.b, out_w, s.cout});
    kernels::reference::Conv1dForward(x.data(), w.data(), bias.data(),
                                      want.data(), s.b, s.w, s.cin, s.cout,
                                      s.k, s.pl, out_w);
    EXPECT_TRUE(AllClose(got, want, kRtol, kAtol))
        << "b=" << s.b << " w=" << s.w << " cin=" << s.cin << " cout="
        << s.cout << " k=" << s.k << " pl=" << s.pl << " pr=" << s.pr;
  }
}

TEST(KernelsConv1dTest, BackwardInputMatchesReference) {
  Rng rng(202);
  for (const ConvShape& s : RandomConvShapes(8, 30)) {
    const int64_t out_w = s.w + s.pl + s.pr - s.k + 1;
    Tensor dy = Tensor::Randn({s.b, out_w, s.cout}, &rng);
    Tensor w = Tensor::Randn({s.cout, s.k, s.cin}, &rng);
    Tensor got = ops::Conv1dBackwardInput(dy, w, s.w, s.pl);
    Tensor want(Shape{s.b, s.w, s.cin});
    kernels::reference::Conv1dBackwardInput(dy.data(), w.data(), want.data(),
                                            s.b, s.w, s.cin, s.cout, s.k,
                                            s.pl, out_w);
    EXPECT_TRUE(AllClose(got, want, kRtol, kAtol))
        << "b=" << s.b << " w=" << s.w << " cin=" << s.cin << " cout="
        << s.cout << " k=" << s.k << " pl=" << s.pl << " pr=" << s.pr;
  }
}

TEST(KernelsConv1dTest, BackwardWeightMatchesReference) {
  Rng rng(203);
  for (const ConvShape& s : RandomConvShapes(9, 30)) {
    const int64_t out_w = s.w + s.pl + s.pr - s.k + 1;
    Tensor dy = Tensor::Randn({s.b, out_w, s.cout}, &rng);
    Tensor x = Tensor::Randn({s.b, s.w, s.cin}, &rng);
    Tensor got = ops::Conv1dBackwardWeight(dy, x, s.k, s.pl);
    Tensor want(Shape{s.cout, s.k, s.cin});
    kernels::reference::Conv1dBackwardWeight(dy.data(), x.data(), want.data(),
                                             s.b, s.w, s.cin, s.cout, s.k,
                                             s.pl, out_w);
    EXPECT_TRUE(AllClose(got, want, kRtol, kAtol))
        << "b=" << s.b << " w=" << s.w << " cin=" << s.cin << " cout="
        << s.cout << " k=" << s.k << " pl=" << s.pl << " pr=" << s.pr;
  }
}

// Im2Col / Col2Im round trip -------------------------------------------------

TEST(KernelsConv1dTest, Im2ColRowsMatchPaddedInputPatches) {
  Rng rng(204);
  const int64_t b = 2, w = 5, cin = 3, k = 4, pl = 2;
  const int64_t out_w = w + pl + 1 - k + 1;  // pr = 1
  Tensor x = Tensor::Randn({b, w, cin}, &rng);
  std::vector<float> col(static_cast<size_t>(b * out_w * k * cin), -7.0f);
  kernels::Im2Col(x.data(), b, w, cin, k, pl, out_w, col.data());
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t t = 0; t < out_w; ++t) {
      for (int64_t kk = 0; kk < k; ++kk) {
        for (int64_t ci = 0; ci < cin; ++ci) {
          const int64_t src = t + kk - pl;
          const float want =
              (src < 0 || src >= w) ? 0.0f : x.at(bb, src, ci);
          EXPECT_EQ(col[static_cast<size_t>(((bb * out_w + t) * k + kk) * cin +
                                            ci)],
                    want)
              << "bb=" << bb << " t=" << t << " kk=" << kk << " ci=" << ci;
        }
      }
    }
  }
}

// Reductions in double -------------------------------------------------------

TEST(KernelsReductionTest, BiasBackwardAccumulatesInDouble) {
  // Row 0 contributes 1.0; every later row contributes 2^-25, which is below
  // half an ulp of 1.0f. A float accumulator absorbs every tiny add and
  // returns exactly 1.0f; the double-precision policy keeps them.
  const int64_t rows = (1 << 16) + 1;
  const int64_t d = 3;
  const float tiny = std::ldexp(1.0f, -25);
  Tensor dy = Tensor::Uninitialized(Shape{rows, d});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < d; ++j) dy.at(r, j) = r == 0 ? 1.0f : tiny;
  }
  const float want = static_cast<float>(
      1.0 + static_cast<double>(rows - 1) * static_cast<double>(tiny));
  ASSERT_NE(want, 1.0f);  // the double sum is float-distinguishable from 1

  Tensor db(Shape{d});
  ops::AddBiasBackward(dy, &db);
  for (int64_t j = 0; j < d; ++j) {
    EXPECT_EQ(db[j], want) << "AddBiasBackward column " << j;
  }

  StatusOr<Tensor> dy3 = dy.Reshape(Shape{rows, 1, d});
  ASSERT_TRUE(dy3.ok());
  Tensor db2 = ops::Conv1dBackwardBias(dy3.value());
  for (int64_t j = 0; j < d; ++j) {
    EXPECT_EQ(db2[j], want) << "Conv1dBackwardBias column " << j;
  }
}

// Allocation-free paths ------------------------------------------------------

TEST(KernelsScratchTest, ScratchGrowsOnceThenIsReused) {
  // Earlier tests already used this thread's scratch; ask for more than the
  // whole pool currently retains so the first call must grow the slot.
  const size_t base = kernels::ScratchBytesThisThread();
  const size_t n = base / sizeof(float) + 1024;
  kernels::Scratch(kernels::kScratchIm2Col, n);
  const size_t grown = kernels::ScratchBytesThisThread();
  EXPECT_GT(grown, base);
  for (int i = 0; i < 10; ++i) {
    float* p = kernels::Scratch(kernels::kScratchIm2Col, n);
    p[0] = 1.0f;  // touch to keep the call un-elided
  }
  EXPECT_EQ(kernels::ScratchBytesThisThread(), grown);
}

TEST(TensorUninitializedTest, ShapeAndWriteReadRoundTrip) {
  Tensor t = Tensor::Uninitialized(Shape{3, 4});
  EXPECT_EQ(t.numel(), 12);
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], static_cast<float>(i));
  }
}

}  // namespace
}  // namespace caee
