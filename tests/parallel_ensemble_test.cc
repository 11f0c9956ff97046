// Bit-reproducibility and clean-shutdown guarantees of the ensemble's
// fan-out (core/ensemble.h over common/thread_pool.h): anomaly scores must
// be bitwise identical at any thread count, concurrent fan-outs must not
// wait on each other, and the thread pool must shut down cleanly (verified
// under ASan and TSan in CI). Policy reference: docs/numeric-contract.md.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/ensemble.h"
#include "test_util.h"

namespace caee {
namespace {

// Force a 4-wide global level (and hence a 4-worker global pool) before the
// pool's lazy creation: on low-core hosts everything would otherwise clamp
// to hardware_concurrency()=1, execute inline, and the cross-thread
// reproducibility / deadlock tests would pass vacuously.
[[maybe_unused]] const bool kForceParallelism = [] {
  SetGlobalParallelism(4);
  return true;
}();

core::EnsembleConfig SmallConfig(int64_t num_threads) {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 8;
  cfg.cae.num_layers = 1;
  cfg.window = 8;
  cfg.num_models = 3;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 16;
  cfg.num_threads = num_threads;
  cfg.seed = 11;
  return cfg;
}

ts::TimeSeries MakeSeries() {
  return testutil::PlantedSeries(160, 2, 3, {80});
}

std::vector<double> FitAndScore(const core::EnsembleConfig& cfg,
                                const ts::TimeSeries& series) {
  core::CaeEnsemble ensemble(cfg);
  EXPECT_TRUE(ensemble.Fit(series).ok());
  auto scores = ensemble.Score(series);
  EXPECT_TRUE(scores.ok());
  return scores.value();
}

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // memcmp, not ==: the claim is bitwise identity, which EXPECT_DOUBLE_EQ
    // would weaken and NaN payloads would evade.
    EXPECT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(double)))
        << "score " << i << " differs: " << a[i] << " vs " << b[i];
  }
}

// ---------------------------------------------------------------------------
// Scores are bitwise identical across thread counts.
// ---------------------------------------------------------------------------

TEST(ParallelEnsembleTest, ScoresBitwiseIdenticalAcrossThreadCounts) {
  const ts::TimeSeries series = MakeSeries();
  const std::vector<double> sequential = FitAndScore(SmallConfig(1), series);
  const std::vector<double> parallel4 = FitAndScore(SmallConfig(4), series);
  ExpectBitwiseEqual(sequential, parallel4);
}

TEST(ParallelEnsembleTest, IndependentMembersBitwiseIdentical) {
  // Transfer and diversity disabled -> whole members train concurrently;
  // the result must still match the sequential path exactly.
  const ts::TimeSeries series = MakeSeries();
  core::EnsembleConfig seq = SmallConfig(1);
  seq.transfer_enabled = false;
  seq.diversity_enabled = false;
  core::EnsembleConfig par = seq;
  par.num_threads = 4;
  ExpectBitwiseEqual(FitAndScore(seq, series), FitAndScore(par, series));
}

TEST(ParallelEnsembleTest, PerModelScoresBitwiseIdentical) {
  const ts::TimeSeries series = MakeSeries();
  core::CaeEnsemble seq(SmallConfig(1));
  core::CaeEnsemble par(SmallConfig(4));
  ASSERT_TRUE(seq.Fit(series).ok());
  ASSERT_TRUE(par.Fit(series).ok());
  auto seq_scores = seq.PerModelScores(series);
  auto par_scores = par.PerModelScores(series);
  ASSERT_TRUE(seq_scores.ok());
  ASSERT_TRUE(par_scores.ok());
  ASSERT_EQ(seq_scores->size(), par_scores->size());
  for (size_t mi = 0; mi < seq_scores->size(); ++mi) {
    ExpectBitwiseEqual((*seq_scores)[mi], (*par_scores)[mi]);
  }
}

TEST(ParallelEnsembleTest, ScoreWindowLastBitwiseIdentical) {
  const ts::TimeSeries series = MakeSeries();
  core::CaeEnsemble seq(SmallConfig(1));
  core::CaeEnsemble par(SmallConfig(4));
  ASSERT_TRUE(seq.Fit(series).ok());
  ASSERT_TRUE(par.Fit(series).ok());
  ts::WindowDataset dataset(series, seq.config().window);
  for (int64_t i : {int64_t{0}, dataset.num_windows() / 2,
                    dataset.num_windows() - 1}) {
    auto a = seq.ScoreWindowLast(dataset.GetWindow(i));
    auto b = par.ScoreWindowLast(dataset.GetWindow(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    const double av = a.value(), bv = b.value();
    EXPECT_EQ(0, std::memcmp(&av, &bv, sizeof(double)));
  }
}

TEST(ParallelEnsembleTest, OverlappedFrozenPassBitwiseIdentical) {
  // In the generation chain each member's frozen-model output pass runs on
  // the pool while the next member trains and reads the sums batch by
  // batch. The next member may read them in every epoch, in the first
  // only, or never (then passes are only joined by the next pass and the
  // end of Fit); each member's scores must match the inline pass at one
  // thread either way.
  const ts::TimeSeries series = MakeSeries();
  for (const float fraction : {1.0f, 0.5f, 0.0f}) {
    core::EnsembleConfig seq = SmallConfig(1);
    seq.num_models = 5;
    seq.diversity_epoch_fraction = fraction;
    core::EnsembleConfig par = seq;
    par.num_threads = 4;
    core::CaeEnsemble a(seq);
    core::CaeEnsemble b(par);
    ASSERT_TRUE(a.Fit(series).ok());
    ASSERT_TRUE(b.Fit(series).ok());
    auto a_scores = a.PerModelScores(series);
    auto b_scores = b.PerModelScores(series);
    ASSERT_TRUE(a_scores.ok());
    ASSERT_TRUE(b_scores.ok());
    ASSERT_EQ(a_scores->size(), b_scores->size());
    for (size_t mi = 0; mi < a_scores->size(); ++mi) {
      SCOPED_TRACE("fraction " + std::to_string(fraction) + " member " +
                   std::to_string(mi));
      ExpectBitwiseEqual((*a_scores)[mi], (*b_scores)[mi]);
    }
  }
}

TEST(ParallelEnsembleTest, DiversityAndReconErrorIdentical) {
  const ts::TimeSeries series = MakeSeries();
  core::CaeEnsemble seq(SmallConfig(1));
  core::CaeEnsemble par(SmallConfig(4));
  ASSERT_TRUE(seq.Fit(series).ok());
  ASSERT_TRUE(par.Fit(series).ok());
  EXPECT_EQ(seq.Diversity(series).value(), par.Diversity(series).value());
  EXPECT_EQ(seq.MeanReconstructionError(series).value(),
            par.MeanReconstructionError(series).value());
}

// ---------------------------------------------------------------------------
// ParallelFor mechanics at the ensemble's grain (one item per task).
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnceAtGrainOne) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; }, /*grain=*/1,
              /*max_threads=*/4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedLoopInsideWorkerDoesNotDeadlock) {
  // A ParallelFor inside a pool worker must execute inline; blocking on
  // the same pool from every worker would deadlock.
  std::atomic<int> total{0};
  ParallelFor(
      8,
      [&](size_t) {
        ParallelFor(8, [&](size_t) { ++total; }, /*grain=*/1,
                    /*max_threads=*/4);
      },
      /*grain=*/1, /*max_threads=*/4);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, ConcurrentFanOutsWaitOnlyForTheirOwnChunks) {
  // Two callers share the global pool, as the serving engine's request
  // thread and deadline flusher do when they score different shards.
  // Caller A's fan-out holds one chunk blocked; caller B's fan-out must
  // still return once its own two chunks are done, not when the whole
  // pool goes idle. The wait is bounded so a regression fails instead of
  // hanging.
  std::mutex mu;
  std::condition_variable cv;
  bool a_blocked = false;
  bool release = false;
  std::thread a([&] {
    ParallelFor(
        2,
        [&](size_t i) {
          if (i != 0) return;
          std::unique_lock<std::mutex> lock(mu);
          a_blocked = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        },
        /*grain=*/1, /*max_threads=*/2);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return a_blocked; }));
  }
  std::promise<void> b_done;
  std::thread b([&] {
    ParallelFor(2, [](size_t) {}, /*grain=*/1, /*max_threads=*/2);
    b_done.set_value();
  });
  const std::future_status status =
      b_done.get_future().wait_for(std::chrono::seconds(5));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();
  EXPECT_EQ(status, std::future_status::ready)
      << "a fan-out waited for another caller's blocked chunk";
}

TEST(MemberRngStreamsTest, ForkedStreamsAreConsumptionOrderIndependent) {
  // The bit-reproducibility contract relies on pre-forked streams being
  // independent state machines: what a member draws must not depend on
  // when sibling members draw. Consume one set forward and the other
  // backward (with interleaved extra draws) and require identical values.
  Rng a(42), b(42);
  auto streams_a = core::ForkMemberStreams(&a, 4);
  auto streams_b = core::ForkMemberStreams(&b, 4);
  std::vector<uint64_t> va(4), vb(4);
  for (size_t i = 0; i < 4; ++i) {
    va[i] = streams_a[i].noise.NextUint64();
  }
  for (size_t i = 4; i-- > 0;) {
    streams_b[(i + 1) % 4].model.NextUint64();  // sibling activity
    vb[i] = streams_b[i].noise.NextUint64();
  }
  EXPECT_EQ(va, vb);
}

// ---------------------------------------------------------------------------
// ThreadPool lifecycle (run under ASan in CI to catch leaks and races).
// ---------------------------------------------------------------------------

TEST(ThreadPoolShutdownTest, DestructionAfterWorkIsClean) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> done{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 64; ++i) {
        pool.Submit([&done] { ++done; });
      }
      // Destructor joins all workers here; ASan flags any leak or race.
    }
    EXPECT_EQ(done.load(), 64);
  }
}

TEST(ThreadPoolShutdownTest, DestructionWithQueuedWorkDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&done] { ++done; });
    }
    // The destructor must drain queued tasks before joining (WorkerLoop
    // only exits once the queue is empty).
  }
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace caee
