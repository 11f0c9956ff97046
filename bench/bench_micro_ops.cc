// Substrate microbenchmarks for interactive use: the primitives whose
// relative cost underpins the paper's efficiency argument, as
// google-benchmark cases — optimized kernels vs the kernels::reference::*
// naive loops at CAE-representative shapes (B=64, W=16..64, C=32..128,
// K=3). The CI-gated kernel rows are bench_serve's micro/* rows
// (BENCH.json).
//
// The conv-vs-LSTM pair (the architectural story of Tables 7-8) stays: one
// whole window through a conv layer vs W sequential LSTM steps.

#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "kernels/reference.h"
#include "nn/conv1d.h"
#include "nn/rnn.h"
#include "tensor/tensor_ops.h"

namespace caee {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  Tensor c = Tensor::Uninitialized({n, n});
  for (auto _ : state) {
    kernels::reference::MatMul(a.data(), n, false, b.data(), n, false,
                               c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulNaive)->Arg(64)->Arg(128);

void BM_Conv1dForwardWindow(benchmark::State& state) {
  const int64_t channels = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::Randn({1, 16, channels}, &rng);
  Tensor w = Tensor::Randn({channels, 3, channels}, &rng);
  Tensor bias = Tensor::Randn({channels}, &rng);
  for (auto _ : state) {
    Tensor y = ops::Conv1d(x, w, bias, 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv1dForwardWindow)->Arg(16)->Arg(32)->Arg(64);

void BM_Conv1dBatchedForward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::Randn({batch, 16, 32}, &rng);
  Tensor w = Tensor::Randn({32, 3, 32}, &rng);
  Tensor bias = Tensor::Randn({32}, &rng);
  for (auto _ : state) {
    Tensor y = ops::Conv1d(x, w, bias, 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 16);
}
BENCHMARK(BM_Conv1dBatchedForward)->Arg(1)->Arg(16)->Arg(64);

void BM_Conv1dBatchedForwardNaive(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::Randn({batch, 16, 32}, &rng);
  Tensor w = Tensor::Randn({32, 3, 32}, &rng);
  Tensor bias = Tensor::Randn({32}, &rng);
  Tensor y = Tensor::Uninitialized({batch, 16, 32});
  for (auto _ : state) {
    kernels::reference::Conv1dForward(x.data(), w.data(), bias.data(),
                                      y.data(), batch, 16, 32, 32, 3, 1, 16);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 16);
}
BENCHMARK(BM_Conv1dBatchedForwardNaive)->Arg(16)->Arg(64);

// One whole 16-step window through a conv layer vs 16 sequential LSTM steps
// at matched width — the parallelism argument in one number pair.
void BM_WindowViaConv(benchmark::State& state) {
  Rng rng(4);
  nn::Conv1dLayer conv(32, 32, 3, nn::Padding::kSame, &rng);
  Tensor x = Tensor::Randn({1, 16, 32}, &rng);
  for (auto _ : state) {
    ag::Var y = conv.Forward(ag::Constant(x));
    benchmark::DoNotOptimize(y->value().data());
  }
}
BENCHMARK(BM_WindowViaConv);

void BM_WindowViaLstm(benchmark::State& state) {
  Rng rng(5);
  nn::LstmCell cell(32, 32, &rng);
  Tensor x = Tensor::Randn({1, 16, 32}, &rng);
  const auto steps = nn::SplitTimeConstant(x);
  for (auto _ : state) {
    nn::LstmState s = cell.InitialState(1);
    for (const auto& step : steps) s = cell.Forward(step, s);
    benchmark::DoNotOptimize(s.h->value().data());
  }
}
BENCHMARK(BM_WindowViaLstm);

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(6);
  Tensor x = Tensor::Randn({64, 16, 16}, &rng);
  for (auto _ : state) {
    Tensor y = ops::SoftmaxLastDim(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLastDim);

void BM_ParallelForScaling(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  SetGlobalParallelism(threads);
  std::vector<double> sink(1 << 16);
  for (auto _ : state) {
    ParallelFor(sink.size(), [&sink](size_t i) {
      sink[i] = std::sqrt(static_cast<double>(i) + 1.0);
    });
    benchmark::DoNotOptimize(sink.data());
  }
  SetGlobalParallelism(0);
}
BENCHMARK(BM_ParallelForScaling)->Arg(1)->Arg(2);

}  // namespace
}  // namespace caee

BENCHMARK_MAIN();
