// Allocation-count instrumentation for the graph-free serving hot path:
// global operator new/delete overrides count every heap allocation made by
// this binary, and the test proves that steady-state ServingEngine scoring
// on the sequential engine performs ZERO heap allocations after warm-up —
// the activation arenas, kernel scratch, pending-window pool, and
// staging buffers are all grow-only, and the serial ParallelFor fast path
// never type-erases its callable (docs/inference.md "Allocation budget").
//
// The counter tracks the replaceable global allocation functions, which is
// exactly what "no malloc on the hot path" means for this codebase; the
// counting window contains only engine calls (no gtest assertions, which
// allocate freely).

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "infer/arena.h"
#include "serve/serving_engine.h"
#include "test_util.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace caee {
namespace {

TEST(AllocCountTest, SteadyStateServingAllocatesNothing) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 2;
  config.window = 8;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;  // sequential engine: the zero-alloc contract
  config.seed = 3;
  const int64_t dims = 4;

  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 4)).ok());

  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.flush_deadline_ms = 0;
  serve::ServingEngine engine(&ensemble, serve_config);
  const int64_t kStreams = 2;
  for (int64_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.OpenStream(s).ok());
  }

  // One reused observation row and an output vector with ample reserved
  // capacity — the caller's side of the zero-alloc contract.
  std::vector<float> row(static_cast<size_t>(dims));
  std::vector<serve::StreamScore> results;
  results.reserve(4096);

  // Returns whether every push succeeded — no gtest machinery inside, so
  // the counting window below contains engine calls only.
  auto push_tick = [&](int64_t t) {
    bool ok = true;
    for (int64_t s = 0; s < kStreams; ++s) {
      for (int64_t j = 0; j < dims; ++j) {
        row[static_cast<size_t>(j)] =
            static_cast<float>(0.1 * static_cast<double>(t + s * 7 + j));
      }
      ok = engine.Push(s, row, &results).ok() && ok;
    }
    return ok;
  };

  // Warm-up: fill every window ring, run several full flush cycles so the
  // arenas, kernel scratch, pending pool, staging buffers, and thread_local
  // score buffers all reach their steady-state sizes.
  for (int64_t t = 0; t < 40; ++t) ASSERT_TRUE(push_tick(t));
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_GT(results.size(), 0u);

  const size_t arena_bytes_before = infer::ThreadArena().bytes();

  // Counting window: pushes and inline batch flushes only.
  bool pushes_ok = true;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int64_t t = 40; t < 120; ++t) pushes_ok = push_tick(t) && pushes_ok;
  const int64_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(pushes_ok);
  EXPECT_EQ(after - before, 0)
      << "steady-state plan-path serving performed heap allocations";
  EXPECT_EQ(infer::ThreadArena().bytes(), arena_bytes_before)
      << "activation arena grew after warm-up";
  // The window really did score work: 80 ticks x 2 warm streams.
  EXPECT_GE(results.size(), 160u);
}

// kSpot variant: the per-stream SPOT update (ring write + moments + GPD
// refit + drift ring) runs inside the same counting window and must also
// be allocation-free — the policy was designed as pure arithmetic over
// the shard's packed slabs (docs/thresholds.md "In the sharded engine").
TEST(AllocCountTest, SteadyStateSpotServingAllocatesNothing) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 2;
  config.window = 8;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;
  config.seed = 3;
  const int64_t dims = 4;

  core::CaeEnsemble ensemble(config);
  const ts::TimeSeries train = testutil::PlantedSeries(96, dims, 4);
  ASSERT_TRUE(ensemble.Fit(train).ok());

  auto reference = ensemble.Score(train);
  ASSERT_TRUE(reference.ok());
  core::SpotConfig spot_config;
  spot_config.level = 0.8;
  spot_config.q = 0.05;
  spot_config.peak_capacity = 16;
  auto init = core::CalibrateSpot(reference.value(), spot_config);
  ASSERT_TRUE(init.ok()) << init.status();

  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.flush_deadline_ms = 0;
  serve_config.threshold_policy = core::ThresholdPolicy::kSpot;
  serve::ServingEngine engine(&ensemble, serve_config, std::nullopt,
                              std::move(init).value());
  const int64_t kStreams = 2;
  for (int64_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.OpenStream(s).ok());
  }

  std::vector<float> row(static_cast<size_t>(dims));
  std::vector<serve::StreamScore> results;
  results.reserve(4096);
  auto push_tick = [&](int64_t t) {
    bool ok = true;
    for (int64_t s = 0; s < kStreams; ++s) {
      for (int64_t j = 0; j < dims; ++j) {
        row[static_cast<size_t>(j)] =
            static_cast<float>(0.1 * static_cast<double>(t + s * 7 + j));
      }
      ok = engine.Push(s, row, &results).ok() && ok;
    }
    return ok;
  };

  for (int64_t t = 0; t < 40; ++t) ASSERT_TRUE(push_tick(t));
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_GT(results.size(), 0u);

  bool pushes_ok = true;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int64_t t = 40; t < 120; ++t) pushes_ok = push_tick(t) && pushes_ok;
  const int64_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(pushes_ok);
  EXPECT_EQ(after - before, 0)
      << "steady-state SPOT serving performed heap allocations";
  EXPECT_GE(results.size(), 160u);
  // The policy actually ran: SPOT counters advanced past the seed.
  const serve::EngineStats stats = engine.Stats();
  EXPECT_GE(stats.scored_windows, 160);
}

// Health-monitoring variant (docs/operations.md "Model-health runbook"):
// with --health on, every flushed window additionally updates the shard's
// health ring (bin index, non-finite flag, alert flag, member dispersion)
// and is copied into the canary retention ring. All of those are plain
// stores into slabs sized at construction, so steady-state scoring must
// stay exactly as allocation-free as the baseline.
TEST(AllocCountTest, SteadyStateHealthServingAllocatesNothing) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 2;
  config.window = 8;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;
  config.seed = 3;
  const int64_t dims = 4;

  core::CaeEnsemble ensemble(config);
  const ts::TimeSeries train = testutil::PlantedSeries(96, dims, 4);
  ASSERT_TRUE(ensemble.Fit(train).ok());

  // Calibrate the health reference from the training scores, exactly as
  // caee_train --health does (constant member dispersion is fine here —
  // the test exercises the serving-side ring, not the calibration).
  auto reference = ensemble.Score(train);
  ASSERT_TRUE(reference.ok());
  std::vector<double> dispersions(reference.value().size(), 0.25);
  auto health = core::CalibrateHealthRef(reference.value(), dispersions);
  ASSERT_TRUE(health.ok()) << health.status();

  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.flush_deadline_ms = 0;
  serve_config.health.enabled = true;
  serve_config.health.min_window = 16;
  serve::ServingEngine engine(&ensemble, serve_config, std::nullopt,
                              std::nullopt, std::move(health).value());
  const int64_t kStreams = 2;
  for (int64_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.OpenStream(s).ok());
  }

  std::vector<float> row(static_cast<size_t>(dims));
  std::vector<serve::StreamScore> results;
  results.reserve(4096);
  auto push_tick = [&](int64_t t) {
    bool ok = true;
    for (int64_t s = 0; s < kStreams; ++s) {
      for (int64_t j = 0; j < dims; ++j) {
        row[static_cast<size_t>(j)] =
            static_cast<float>(0.1 * static_cast<double>(t + s * 7 + j));
      }
      ok = engine.Push(s, row, &results).ok() && ok;
    }
    return ok;
  };

  for (int64_t t = 0; t < 40; ++t) ASSERT_TRUE(push_tick(t));
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_GT(results.size(), 0u);

  bool pushes_ok = true;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int64_t t = 40; t < 120; ++t) pushes_ok = push_tick(t) && pushes_ok;
  const int64_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(pushes_ok);
  EXPECT_EQ(after - before, 0)
      << "steady-state health-monitored serving performed heap allocations";
  EXPECT_GE(results.size(), 160u);
  // The health ring really ran inside the counting window.
  const serve::EngineStats stats = engine.Stats();
  EXPECT_GT(stats.health_window, 0);
  EXPECT_GE(stats.dispersion_ratio, 0.0);
}

// Hot-swap variant (docs/operations.md): ReloadArtifact itself allocates
// (it loads a whole ensemble — that's the point of doing it off the hot
// path), but once the new generation's scratch is warm, steady-state
// scoring through the ADOPTED generation is as allocation-free as the
// original. The swap must not have left per-push shared_ptr traffic or
// any other hidden allocation behind in the shards.
TEST(AllocCountTest, SteadyStateAfterHotSwapAllocatesNothing) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 2;
  config.window = 8;
  config.num_models = 3;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;
  config.seed = 3;
  const int64_t dims = 4;

  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 4)).ok());
  const std::string path = ::testing::TempDir() + "/alloc_swap.caee";
  ASSERT_TRUE(core::SaveEnsemble(ensemble, path, 1.5).ok());

  serve::ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.flush_deadline_ms = 0;
  serve::ServingEngine engine(&ensemble, serve_config);
  const int64_t kStreams = 2;
  for (int64_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.OpenStream(s).ok());
  }

  std::vector<float> row(static_cast<size_t>(dims));
  std::vector<serve::StreamScore> results;
  results.reserve(4096);
  auto push_tick = [&](int64_t t) {
    bool ok = true;
    for (int64_t s = 0; s < kStreams; ++s) {
      for (int64_t j = 0; j < dims; ++j) {
        row[static_cast<size_t>(j)] =
            static_cast<float>(0.1 * static_cast<double>(t + s * 7 + j));
      }
      ok = engine.Push(s, row, &results).ok() && ok;
    }
    return ok;
  };

  // Warm generation 1, swap (allocation is fine HERE), then warm the
  // adopted generation's plan scratch the same way.
  for (int64_t t = 0; t < 40; ++t) ASSERT_TRUE(push_tick(t));
  ASSERT_TRUE(engine.Flush(&results).ok());
  auto swapped = engine.ReloadArtifact(path);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  ASSERT_EQ(engine.generation(), 2);
  for (int64_t t = 40; t < 80; ++t) ASSERT_TRUE(push_tick(t));
  ASSERT_TRUE(engine.Flush(&results).ok());

  bool pushes_ok = true;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int64_t t = 80; t < 160; ++t) pushes_ok = push_tick(t) && pushes_ok;
  const int64_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(pushes_ok);
  EXPECT_EQ(after - before, 0)
      << "post-swap steady-state serving performed heap allocations";
  // Everything in the counting window scored on the new generation.
  for (const auto& r : results) {
    if (r.index >= 80) EXPECT_EQ(r.generation, 2);
  }
}

// Direct ensemble-level variant: ScoreWindowsLastInto on a raw buffer is
// allocation-free after its first call at a given batch size.
TEST(AllocCountTest, ScoreWindowsLastIntoAllocatesNothingWhenWarm) {
  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 1;
  config.window = 8;
  config.num_models = 4;
  config.epochs_per_model = 1;
  config.batch_size = 16;
  config.max_train_windows = 48;
  config.num_threads = 1;
  config.seed = 9;
  const int64_t dims = 4;

  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(96, dims, 2)).ok());

  const int64_t batch = 4;
  std::vector<float> windows(
      static_cast<size_t>(batch * config.window * dims));
  for (size_t i = 0; i < windows.size(); ++i) {
    windows[i] = static_cast<float>(0.01 * static_cast<double>(i % 97));
  }
  std::vector<double> scores;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(
        ensemble.ScoreWindowsLastInto(windows.data(), batch, &scores).ok());
  }

  bool all_ok = true;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int iter = 0; iter < 50; ++iter) {
    all_ok =
        ensemble.ScoreWindowsLastInto(windows.data(), batch, &scores).ok() &&
        all_ok;
  }
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0)
      << "warm ScoreWindowsLastInto performed heap allocations";
}

}  // namespace
}  // namespace caee
