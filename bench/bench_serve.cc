// The in-process timing table: one row {name, ns_per_window} per cell.
// `--caee_json=PATH` writes the rows (scripts/run_benches.sh writes them to
// BENCH.json), and scripts/check_bench_regression.py fails CI when a row
// runs more than 2x slower than the committed BENCH.json. The end-to-end
// benchmark, with latency, capacity and a per-layer breakdown, lives in
// benchmark/; these rows only catch a kernel or a serving path that lost
// its fast path. Scores and memory are pinned exactly by ctest instead
// (tests/serve_test.cc, tests/hot_swap_test.cc, tests/alloc_count_test.cc).
//
// Two kinds of row:
//   micro/<op>/<shape>/t1/<naive|opt>  one kernel call at a
//       CAE-representative shape, the naive loop of kernels/reference.h
//       next to the optimized op; a "window" here is one call. Kernels run
//       on their caller's thread, so every row is a one-thread row.
//   serve/streams<S>[/idle<I>][/shards<N>]/batch<B>[/spot][/health]
//       [/reloads<R>]  one Cell: a small trained ensemble (w=8, D'=8,
//       L=1, 4 dims) behind a serve::ServingEngine. The streams=1/batch1
//       row is the tail-latency case: one window per forward pass.
//
// One timing rule for every Cell: open S + I sessions and warm each ring
// to w-1 observations, untimed; then time kObs pushes per fed stream,
// round-robin over the S fed streams, and the final Flush, with R hot-swaps
// of an identical artifact spaced evenly through the timed ticks. That
// wall time over the S x kObs windows scored, at its best of kRepeats
// fresh engines (one preempted tick on a shared host would otherwise
// dominate a few-millisecond cell), is ns_per_window. Cells over the same
// S fed streams must give the same canonical-order score sum.
//
// Flags: bench_util.h's (--models, --epochs, --threads, --seed) and
// --caee_json=PATH.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "kernels/reference.h"
#include "serve/serving_engine.h"
#include "tensor/tensor_ops.h"

namespace caee {
namespace {

struct Row {
  std::string name;
  double ns_per_window;
};

void Report(const std::string& name, double ns, std::vector<Row>* rows) {
  std::printf("  %-46s %14.1f ns\n", name.c_str(), ns);
  rows->push_back({name, ns});
}

// ---------------------------------------------------------------------------
// Kernel rows.
// ---------------------------------------------------------------------------

// Every timed call feeds one output element here, so the optimizer cannot
// drop the call.
volatile double g_sink = 0.0;

// One warm-up call, then calls until ~0.3 s accumulate (at least 3).
double NsPerCall(const std::function<void()>& run) {
  run();
  int64_t calls = 0;
  double elapsed_ns = 0.0;
  while ((elapsed_ns < 3e8 || calls < 3) && calls < 1000000) {
    Stopwatch timer;
    run();
    elapsed_ns += timer.ElapsedSeconds() * 1e9;
    ++calls;
  }
  return elapsed_ns / static_cast<double>(calls);
}

void KernelRows(std::vector<Row>* rows) {
  auto time = [rows](const std::string& op, const std::string& shape,
                     const char* impl, const std::function<void()>& run) {
    const std::string name = "micro/" + op + "/" + shape + "/t1/" + impl;
    Report(name, NsPerCall(run), rows);
  };

  struct ConvShape {
    int64_t b, w, c, k;
  };
  const ConvShape shapes[] = {{64, 16, 32, 3}, {64, 32, 64, 3},
                              {64, 64, 128, 3}};
  for (const ConvShape& s : shapes) {
    Rng rng(11);
    Tensor x = Tensor::Randn({s.b, s.w, s.c}, &rng);
    Tensor w = Tensor::Randn({s.c, s.k, s.c}, &rng, 0.1f);
    Tensor bias = Tensor::Randn({s.c}, &rng);
    Tensor dy = Tensor::Randn({s.b, s.w, s.c}, &rng, 0.1f);
    Tensor y = Tensor::Uninitialized({s.b, s.w, s.c});
    Tensor dx(Shape{s.b, s.w, s.c});
    Tensor dw(Shape{s.c, s.k, s.c});
    const std::string shape =
        "B" + std::to_string(s.b) + "_W" + std::to_string(s.w) + "_C" +
        std::to_string(s.c) + "_K" + std::to_string(s.k);
    time("conv1d_fwd", shape, "naive", [&] {
      kernels::reference::Conv1dForward(x.data(), w.data(), bias.data(),
                                        y.data(), s.b, s.w, s.c, s.c, s.k, 1,
                                        s.w);
      g_sink += y.data()[0];
    });
    time("conv1d_fwd", shape, "opt",
         [&] { g_sink += ops::Conv1d(x, w, bias, 1, 1).data()[0]; });
    time("conv1d_bwd_input", shape, "naive", [&] {
      dx.Zero();
      kernels::reference::Conv1dBackwardInput(dy.data(), w.data(), dx.data(),
                                              s.b, s.w, s.c, s.c, s.k, 1,
                                              s.w);
      g_sink += dx.data()[0];
    });
    time("conv1d_bwd_input", shape, "opt",
         [&] { g_sink += ops::Conv1dBackwardInput(dy, w, s.w, 1).data()[0]; });
    time("conv1d_bwd_weight", shape, "naive", [&] {
      dw.Zero();
      kernels::reference::Conv1dBackwardWeight(dy.data(), x.data(), dw.data(),
                                               s.b, s.w, s.c, s.c, s.k, 1,
                                               s.w);
      g_sink += dw.data()[0];
    });
    time("conv1d_bwd_weight", shape, "opt",
         [&] { g_sink += ops::Conv1dBackwardWeight(dy, x, s.k, 1).data()[0]; });
  }

  for (const int64_t n : {int64_t{64}, int64_t{128}}) {
    Rng rng(12);
    Tensor a = Tensor::Randn({n, n}, &rng);
    Tensor b = Tensor::Randn({n, n}, &rng);
    Tensor c = Tensor::Uninitialized({n, n});
    const std::string shape = std::to_string(n) + "x" + std::to_string(n) +
                              "x" + std::to_string(n);
    time("matmul", shape, "naive", [&] {
      kernels::reference::MatMul(a.data(), n, false, b.data(), n, false,
                                 c.data(), n, n, n);
      g_sink += c.data()[0];
    });
    time("matmul", shape, "opt",
         [&] { g_sink += ops::MatMul(a, b).data()[0]; });
  }

  // Elementwise and reduction kernels: optimized only.
  {
    Rng rng(14);
    Tensor x = Tensor::Randn({64, 64, 128}, &rng);
    Tensor y = Tensor::Randn({64, 64, 128}, &rng);
    Tensor acc(x.shape());
    Tensor sm = Tensor::Randn({64, 16, 16}, &rng);
    const std::string shape = "B64_W64_C128";
    time("sigmoid", shape, "opt",
         [&] { g_sink += ops::Sigmoid(x).data()[0]; });
    time("add", shape, "opt", [&] { g_sink += ops::Add(x, y).data()[0]; });
    time("axpy", shape, "opt", [&] {
      ops::AxpyInPlace(0.0f, x, &acc);  // alpha = 0 keeps acc stable
      g_sink += acc.data()[0];
    });
    time("sq_err", shape, "opt",
         [&] { g_sink += ops::SquaredErrorPerPosition(x, y)[0]; });
    time("softmax", "64x16x16", "opt",
         [&] { g_sink += ops::SoftmaxLastDim(sm).data()[0]; });
  }
}

// ---------------------------------------------------------------------------
// Serve rows.
// ---------------------------------------------------------------------------

constexpr int64_t kDims = 4;
constexpr int64_t kObs = 48;         // timed observations per fed stream
constexpr int64_t kMaxStreams = 64;  // most fed streams any cell asks for
constexpr int kRepeats = 3;          // fresh engines per cell; the best wins

struct Cell {
  int64_t streams;   // sessions fed round-robin
  int64_t idle = 0;  // more sessions, opened and warmed, never fed
  int64_t shards = 1;
  int64_t max_batch = 16;
  bool spot = false;    // SPOT-capable engine, every session kSpot
  bool health = false;  // model-health monitoring on
  int64_t reloads = 0;  // swaps of the identical artifact while timed
};

std::string Name(const Cell& c) {
  std::string name = "serve/streams" + std::to_string(c.streams);
  if (c.idle > 0) name += "/idle" + std::to_string(c.idle);
  if (c.shards > 1) name += "/shards" + std::to_string(c.shards);
  name += "/batch" + std::to_string(c.max_batch);
  if (c.spot) name += "/spot";
  if (c.health) name += "/health";
  if (c.reloads > 0) name += "/reloads" + std::to_string(c.reloads);
  return name;
}

// Deterministic sine-plus-noise stream (each seed gets its own phases),
// matching the training distribution.
std::vector<std::vector<float>> MakeStream(int64_t length, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> phase(static_cast<size_t>(kDims));
  for (auto& p : phase) p = rng.Uniform(0.0, 6.28);
  std::vector<std::vector<float>> rows(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    for (int64_t j = 0; j < kDims; ++j) {
      rows[static_cast<size_t>(t)].push_back(static_cast<float>(
          std::sin(0.2 * static_cast<double>(t) +
                   phase[static_cast<size_t>(j)]) +
          0.05 * rng.Gaussian()));
    }
  }
  return rows;
}

// What every Cell serves: one trained ensemble, its SPOT and health
// calibrations, the same ensemble saved as a reload artifact, and the
// observations of the fed streams (w-1 warm-up rows, then kObs timed).
struct Model {
  std::unique_ptr<core::CaeEnsemble> ensemble;
  core::SpotInit spot;
  core::HealthRef health;
  std::string artifact;
  std::vector<std::vector<std::vector<float>>> streams;
  std::vector<std::vector<float>> idle_rows;  // shared by every idle session
};

Model Train(const bench::Flags& flags) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 1;
  config.window = 8;
  config.num_models = flags.models;
  config.epochs_per_model = flags.epochs;
  config.batch_size = 32;
  config.max_train_windows = 128;
  config.num_threads = flags.threads;
  config.seed = flags.seed;

  Model m;
  m.ensemble = std::make_unique<core::CaeEnsemble>(config);
  const auto rows = MakeStream(260, flags.seed);
  ts::TimeSeries train(static_cast<int64_t>(rows.size()), kDims);
  for (int64_t t = 0; t < train.length(); ++t) {
    for (int64_t j = 0; j < kDims; ++j) {
      train.value(t, j) = rows[static_cast<size_t>(t)][static_cast<size_t>(j)];
    }
  }
  CAEE_CHECK(m.ensemble->Fit(train).ok());
  auto scored = m.ensemble->Score(train);
  CAEE_CHECK(scored.ok());
  const std::vector<double> train_scores = std::move(scored).value();

  // Level 0.9 (not the serving default 0.98), so this small training set
  // yields comfortably more than kSpotMinPeaks excesses.
  core::SpotConfig spot_config;
  spot_config.level = 0.9;
  spot_config.q = 0.02;
  spot_config.peak_capacity = 32;
  auto spot = core::CalibrateSpot(train_scores, spot_config);
  CAEE_CHECK_MSG(spot.ok(), "SPOT calibration failed: " << spot.status());
  m.spot = std::move(spot).value();
  // Constant member dispersion: what health costs a window does not depend
  // on the reference's values.
  auto health = core::CalibrateHealthRef(
      train_scores, std::vector<double>(train_scores.size(), 0.25));
  CAEE_CHECK_MSG(health.ok(), "health calibration failed: " << health.status());
  m.health = std::move(health).value();
  // Weights only, no SPOT or health sections: it matches the engine the
  // reload cells build, so every swap is adopted.
  m.artifact = "bench_serve_reload.caee";
  const Status saved = core::SaveEnsemble(*m.ensemble, m.artifact);
  CAEE_CHECK_MSG(saved.ok(), "artifact save failed: " << saved);

  const int64_t w = config.window;
  for (int64_t s = 0; s < kMaxStreams; ++s) {
    m.streams.push_back(
        MakeStream(w - 1 + kObs, 1000 + static_cast<uint64_t>(s)));
  }
  m.idle_rows = MakeStream(w - 1, 7);
  return m;
}

// Runs one Cell once under the timing rule above; returns ns per window.
// `sums` maps a fed-stream count to the score sum of the first cell over
// those streams; every later cell over them must match it bitwise.
double RunCell(const Model& m, const Cell& cell,
               std::map<int64_t, double>* sums) {
  CAEE_CHECK(cell.streams <= kMaxStreams);
  serve::ServeConfig config;
  config.max_batch = cell.max_batch;
  config.flush_deadline_ms = 0;  // timing measures batching, not timers
  config.num_shards = cell.shards;
  config.health.enabled = cell.health;
  if (cell.spot) config.threshold_policy = core::ThresholdPolicy::kSpot;
  serve::ServingEngine engine(
      m.ensemble.get(), config, std::nullopt,
      cell.spot ? std::optional<core::SpotInit>(m.spot) : std::nullopt,
      cell.health ? std::optional<core::HealthRef>(m.health) : std::nullopt);

  const size_t w = static_cast<size_t>(m.ensemble->config().window);
  std::vector<serve::StreamScore> results;
  for (int64_t s = 0; s < cell.streams + cell.idle; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
    const auto& rows = s < cell.streams ? m.streams[static_cast<size_t>(s)]
                                        : m.idle_rows;
    for (size_t t = 0; t + 1 < w; ++t) {
      CAEE_CHECK(engine.Push(s, rows[t], &results).ok());
    }
  }
  CAEE_CHECK(results.empty());

  int64_t next_reload = 1;
  Stopwatch timer;
  for (int64_t t = 0; t < kObs; ++t) {
    if (next_reload <= cell.reloads &&
        t == kObs * next_reload / (cell.reloads + 1)) {
      const auto swapped = engine.ReloadArtifact(m.artifact);
      CAEE_CHECK_MSG(swapped.ok(), "reload failed: " << swapped.status());
      ++next_reload;
    }
    const size_t tick = w - 1 + static_cast<size_t>(t);
    for (int64_t s = 0; s < cell.streams; ++s) {
      const auto& row = m.streams[static_cast<size_t>(s)][tick];
      CAEE_CHECK(engine.Push(s, row, &results).ok());
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double ns = timer.ElapsedSeconds() * 1e9;

  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) == cell.streams * kObs,
                 Name(cell) << " scored " << results.size()
                            << " windows, expected " << cell.streams * kObs);
  // Shards flush their own queues, so arrival order varies with the shard
  // count; sum in (stream, index) order so the sum compares score sets.
  std::sort(results.begin(), results.end(),
            [](const serve::StreamScore& a, const serve::StreamScore& b) {
              return a.stream_id != b.stream_id ? a.stream_id < b.stream_id
                                                : a.index < b.index;
            });
  double sum = 0.0;
  for (const auto& r : results) sum += r.score;
  const auto first = sums->emplace(cell.streams, sum);
  CAEE_CHECK_MSG(first.second || first.first->second == sum,
                 Name(cell) << " moved a score: sum " << sum << " vs "
                            << first.first->second);
  return ns / static_cast<double>(results.size());
}

void ServeRows(const bench::Flags& flags, std::vector<Row>* rows) {
  std::vector<Cell> cells;
  for (const int64_t streams : {1, 4, 16}) {
    for (const int64_t batch : {1, 4, 16}) {
      Cell c{streams};
      c.max_batch = batch;
      cells.push_back(c);
    }
  }
  // Mostly-idle populations: 64 fed streams among 10^3..10^5 sessions.
  for (const int64_t open : {1000, 10000, 100000}) {
    for (const int64_t shards : {1, 4, 16}) {
      Cell c{kMaxStreams};
      c.idle = open - kMaxStreams;
      c.shards = shards;
      cells.push_back(c);
    }
  }
  for (const int64_t streams : {4, 16}) {
    Cell spot{streams};
    spot.spot = true;
    cells.push_back(spot);
    Cell health{streams};
    health.health = true;
    cells.push_back(health);
    for (const int64_t batch : {1, 16}) {
      Cell reload{streams};
      reload.max_batch = batch;
      reload.reloads = 3;
      cells.push_back(reload);
    }
  }

  const Model m = Train(flags);
  std::printf("serve cells: M=%lld, window=%lld, dims=%lld, %lld timed "
              "observations per fed stream\n",
              static_cast<long long>(m.ensemble->config().num_models),
              static_cast<long long>(m.ensemble->config().window),
              static_cast<long long>(kDims), static_cast<long long>(kObs));
  std::map<int64_t, double> sums;
  for (const Cell& cell : cells) {
    double best = RunCell(m, cell, &sums);
    for (int r = 1; r < kRepeats; ++r) {
      best = std::min(best, RunCell(m, cell, &sums));
    }
    Report(Name(cell), best, rows);
  }
  std::remove(m.artifact.c_str());
}

int Main(int argc, char** argv) {
  const bench::Flags flags = bench::Flags::Parse(argc, argv, {"caee_json"});
  const std::string json_path = cli::Args(argc, argv).Get("caee_json", "");

  std::vector<Row> rows;
  std::printf("kernel calls:\n");
  KernelRows(&rows);
  ServeRows(flags, &rows);

  if (json_path.empty()) return 0;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"entries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_window\": %.1f}%s\n",
                 rows[i].name.c_str(), rows[i].ns_per_window,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  return 0;
}

}  // namespace
}  // namespace caee

int main(int argc, char** argv) { return caee::Main(argc, argv); }
