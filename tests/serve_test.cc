// Multi-stream serving engine (src/serve/): the cross-stream micro-batching
// determinism contract and the session protocol.
//
// The load-bearing test is BatchedScoresBitwiseEqualSingleStreamRuns: for
// every batch size in {1, 3, 8} and engine thread count in {1, 4}, scores
// coming out of one ServingEngine serving N interleaved streams must be
// BITWISE equal (EXPECT_EQ on doubles, no tolerance) to N independent
// core::StreamingScorer runs — the contract documented in docs/serving.md
// and docs/numeric-contract.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/health.h"
#include "core/spot.h"
#include "core/streaming.h"
#include "serve/serving_engine.h"
#include "test_util.h"

namespace caee {
namespace {

core::EnsembleConfig TinyConfig() {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 6;
  cfg.cae.num_layers = 1;
  cfg.window = 5;
  cfg.num_models = 3;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 32;
  cfg.max_train_windows = 64;
  cfg.seed = 11;
  return cfg;
}

std::vector<float> Row(const ts::TimeSeries& s, int64_t t) {
  return std::vector<float>(s.row(t), s.row(t) + s.dims());
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ensemble_ = std::make_unique<core::CaeEnsemble>(TinyConfig());
    ASSERT_TRUE(ensemble_->Fit(testutil::PlantedSeries(250, 2, 1)).ok());
  }
  std::unique_ptr<core::CaeEnsemble> ensemble_;
};

// Distinct per-stream series (different seeds / planted outliers) so a
// cross-stream mixup cannot cancel out.
std::vector<ts::TimeSeries> MakeStreams(int64_t n, int64_t length) {
  std::vector<ts::TimeSeries> streams;
  for (int64_t i = 0; i < n; ++i) {
    streams.push_back(testutil::PlantedSeries(
        length, 2, /*seed=*/100 + static_cast<uint64_t>(i),
        {length / 2 + i}));
  }
  return streams;
}

// Ground truth: one dedicated StreamingScorer per stream.
std::vector<std::vector<double>> SingleStreamScores(
    const core::CaeEnsemble* ensemble,
    const std::vector<ts::TimeSeries>& streams) {
  std::vector<std::vector<double>> scores(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    core::StreamingScorer scorer(ensemble);
    for (int64_t t = 0; t < streams[s].length(); ++t) {
      auto result = scorer.Push(Row(streams[s], t));
      CAEE_CHECK(result.ok());
      if (result->has_value()) scores[s].push_back(result->value());
    }
  }
  return scores;
}

// Calibrate SPOT init params on the scores the streams actually produce,
// so the peaks threshold t lands inside the live score distribution and
// the online update exercises all four SpotObserve cases.
core::SpotInit SpotInitFor(const std::vector<std::vector<double>>& scores) {
  std::vector<double> reference;
  for (const auto& s : scores) reference.insert(reference.end(), s.begin(),
                                                s.end());
  core::SpotConfig config;
  config.level = 0.8;
  config.q = 0.05;
  config.peak_capacity = 16;
  auto init = core::CalibrateSpot(reference, config);
  CAEE_CHECK_MSG(init.ok(), "SPOT calibration failed in test setup");
  return std::move(init).value();
}

TEST_F(ServeTest, BatchedScoresBitwiseEqualSingleStreamRuns) {
  const int64_t kStreams = 5, kLength = 30;
  const auto streams = MakeStreams(kStreams, kLength);
  const auto expected = SingleStreamScores(ensemble_.get(), streams);

  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    ensemble_->set_num_threads(threads);
    for (const int64_t max_batch : {int64_t{1}, int64_t{3}, int64_t{8}}) {
      serve::ServeConfig config;
      config.max_batch = max_batch;
      config.flush_deadline_ms = 0;  // only batch-full / explicit flushes
      serve::ServingEngine engine(ensemble_.get(), config);

      std::vector<serve::StreamScore> results;
      for (int64_t s = 0; s < kStreams; ++s) {
        ASSERT_TRUE(engine.OpenStream(s).ok());
      }
      // Interleave with a skewed pattern: stream s gets an observation on
      // every tick where t % (s + 1) == 0, so streams warm up and go ready
      // at different times and batches mix streams unevenly.
      std::vector<int64_t> cursor(static_cast<size_t>(kStreams), 0);
      for (int64_t t = 0; t < kLength * (kStreams + 1); ++t) {
        for (int64_t s = 0; s < kStreams; ++s) {
          if (t % (s + 1) != 0) continue;
          int64_t& c = cursor[static_cast<size_t>(s)];
          if (c >= kLength) continue;
          ASSERT_TRUE(engine.Push(s, Row(streams[static_cast<size_t>(s)], c),
                                  &results)
                          .ok());
          ++c;
        }
      }
      ASSERT_TRUE(engine.Flush(&results).ok());

      // Regroup the engine's results per stream, in index order of arrival.
      std::map<int64_t, std::vector<std::pair<int64_t, double>>> per_stream;
      for (const auto& r : results) {
        per_stream[r.stream_id].push_back({r.index, r.score});
      }
      for (int64_t s = 0; s < kStreams; ++s) {
        const auto& got = per_stream[s];
        const auto& want = expected[static_cast<size_t>(s)];
        ASSERT_EQ(got.size(), want.size())
            << "stream " << s << " batch " << max_batch << " threads "
            << threads;
        const int64_t w = ensemble_->config().window;
        for (size_t i = 0; i < want.size(); ++i) {
          // Index stamping: the i-th score belongs to observation w-1+i.
          EXPECT_EQ(got[i].first, w - 1 + static_cast<int64_t>(i));
          EXPECT_EQ(got[i].second, want[i])
              << "stream " << s << " obs " << got[i].first << " batch "
              << max_batch << " threads " << threads;
        }
      }
    }
  }
}

TEST_F(ServeTest, ScoreWindowsLastMatchesScoreWindowLastPerWindow) {
  // Core-level statement of the same contract: a (B, w, D) batch scores
  // each window bitwise-identically to B separate (1, w, D) calls.
  const int64_t w = ensemble_->config().window;
  ts::TimeSeries series = testutil::PlantedSeries(40, 2, 42, {20});
  const int64_t num_windows = series.length() - w + 1;
  Tensor batch = Tensor::Uninitialized(Shape{num_windows, w, series.dims()});
  for (int64_t b = 0; b < num_windows; ++b) {
    for (int64_t t = 0; t < w; ++t) {
      for (int64_t j = 0; j < series.dims(); ++j) {
        batch.at(b, t, j) = series.value(b + t, j);
      }
    }
  }
  auto batched = ensemble_->ScoreWindowsLast(batch);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(static_cast<int64_t>(batched.value().size()), num_windows);
  for (int64_t b = 0; b < num_windows; ++b) {
    Tensor one = Tensor::Uninitialized(Shape{1, w, series.dims()});
    for (int64_t t = 0; t < w; ++t) {
      for (int64_t j = 0; j < series.dims(); ++j) {
        one.at(0, t, j) = batch.at(b, t, j);
      }
    }
    auto single = ensemble_->ScoreWindowLast(one);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched.value()[static_cast<size_t>(b)], single.value())
        << "window " << b;
  }
}

TEST_F(ServeTest, ScoreWindowsLastRejectsBadShapes) {
  EXPECT_EQ(ensemble_->ScoreWindowsLast(Tensor(Shape{3, 2})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ensemble_
                ->ScoreWindowsLast(Tensor(
                    Shape{2, ensemble_->config().window + 1, 2}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong dimensionality is caught against the fitted scaler.
  EXPECT_EQ(ensemble_
                ->ScoreWindowsLast(
                    Tensor(Shape{2, ensemble_->config().window, 3}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, ScoreWindowsLastRejectsWrongWidthWithRescalingOff) {
  // The width check must not live inside the rescale branch: the "No
  // re-scaling" ablation config has no scaler to catch the mismatch, and a
  // bad width must still be a Status, not an abort in the embedding.
  core::EnsembleConfig config = TinyConfig();
  config.rescale_enabled = false;
  core::CaeEnsemble ensemble(config);
  ASSERT_TRUE(ensemble.Fit(testutil::PlantedSeries(120, 2, 2)).ok());
  EXPECT_EQ(
      ensemble.ScoreWindowsLast(Tensor(Shape{2, config.window, 3}))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      ensemble.ScoreWindowsLast(Tensor(Shape{2, config.window, 2})).ok());
}

TEST_F(ServeTest, PushToUnopenedStreamIsNotFound) {
  serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{});
  std::vector<serve::StreamScore> results;
  auto status = engine.Push(7, {1.0f, 2.0f}, &results);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, DoubleOpenFailsCloseOfUnknownFails) {
  serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{});
  EXPECT_TRUE(engine.OpenStream(1).ok());
  EXPECT_EQ(engine.OpenStream(1).code(), StatusCode::kFailedPrecondition);
  std::vector<serve::StreamScore> results;
  EXPECT_EQ(engine.CloseStream(2, &results).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.num_streams(), 1);
}

TEST_F(ServeTest, CloseFlushesPendingWindowsAndReopenStartsCold) {
  serve::ServeConfig config;
  config.max_batch = 64;  // never auto-flushes in this test
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_.get(), config);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 3);
  const int64_t w = ensemble_->config().window;
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < w + 2; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  EXPECT_TRUE(results.empty());  // batch never filled
  EXPECT_EQ(engine.pending_windows(), 3);  // windows w-1, w, w+1

  ASSERT_TRUE(engine.CloseStream(1, &results).ok());
  ASSERT_EQ(results.size(), 3u);  // close flushed, nothing dropped
  EXPECT_EQ(results[0].index, w - 1);
  EXPECT_EQ(engine.pending_windows(), 0);
  EXPECT_EQ(engine.num_streams(), 0);

  // Reopening the id starts a cold session: a single push scores nothing.
  ASSERT_TRUE(engine.OpenStream(1).ok());
  results.clear();
  ASSERT_TRUE(engine.Push(1, Row(series, 0), &results).ok());
  ASSERT_TRUE(engine.Flush(&results).ok());
  EXPECT_TRUE(results.empty());
}

TEST_F(ServeTest, BatchFullTriggersInlineFlush) {
  serve::ServeConfig config;
  config.max_batch = 2;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_.get(), config);
  ASSERT_TRUE(engine.OpenStream(1).ok());
  ASSERT_TRUE(engine.OpenStream(2).ok());

  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 4);
  const int64_t w = ensemble_->config().window;
  std::vector<serve::StreamScore> results;
  // Warm both streams fully (w pushes each = 1 ready window each); the
  // second stream's warm-up push fills the batch of 2 and flushes inline.
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  EXPECT_EQ(engine.pending_windows(), 1);
  EXPECT_TRUE(results.empty());
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(engine.Push(2, Row(series, t), &results).ok());
  }
  ASSERT_EQ(results.size(), 2u);  // one window per stream, same batch
  EXPECT_EQ(engine.pending_windows(), 0);
  EXPECT_EQ(results[0].stream_id, 1);
  EXPECT_EQ(results[1].stream_id, 2);
  // Identical inputs through the same frozen models score identically.
  EXPECT_EQ(results[0].score, results[1].score);
}

TEST_F(ServeTest, DeadlineFlushScoresWaitingWindows) {
  serve::ServeConfig config;
  config.max_batch = 64;
  config.flush_deadline_ms = 5;
  serve::ServingEngine engine(ensemble_.get(), config);
  ASSERT_TRUE(engine.OpenStream(1).ok());

  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 5);
  const int64_t w = ensemble_->config().window;
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  EXPECT_EQ(engine.pending_windows(), 1);

  // Immediately after the push the deadline may not have expired; after
  // sleeping well past it, FlushIfExpired MUST score the window.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(engine.FlushIfExpired(&results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, w - 1);
  EXPECT_EQ(engine.pending_windows(), 0);
}

TEST_F(ServeTest, DeadlineDisabledNeverExpires) {
  serve::ServeConfig config;
  config.max_batch = 64;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble_.get(), config);
  ASSERT_TRUE(engine.OpenStream(1).ok());
  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 6);
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < ensemble_->config().window; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(engine.FlushIfExpired(&results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.pending_windows(), 1);
}

TEST_F(ServeTest, WidthMismatchRejectedSessionStaysUsable) {
  serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{});
  ASSERT_TRUE(engine.OpenStream(1).ok());
  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 7);
  std::vector<serve::StreamScore> results;
  ASSERT_TRUE(engine.Push(1, Row(series, 0), &results).ok());
  // Wrong width mid-stream: rejected, not counted, session intact.
  EXPECT_EQ(engine.Push(1, {1.0f, 2.0f, 3.0f}, &results).code(),
            StatusCode::kInvalidArgument);
  for (int64_t t = 1; t < ensemble_->config().window; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(series, t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  // Exactly one window: the rejected push did not advance the session.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, ensemble_->config().window - 1);
}

// ---------------------------------------------------------------------------
// Sharded-engine contracts (PR 6): shard count must be invisible in the
// scores, rejections must leave every shard untouched, and close must drain
// exactly the owning shard.
// ---------------------------------------------------------------------------

// The tentpole determinism statement: for every shard count in {1, 4, 16},
// batch size in {1, 3, 8} and idle population in {0, 1000}, the sharded
// engine's scores are BITWISE equal (EXPECT_EQ on doubles) to dedicated
// per-stream scorers — sharding changes who holds which lock, and idle
// sessions which slots the fed ones get, never what a window scores.
TEST_F(ServeTest, ShardedScoresBitwiseEqualAtAnyShardCount) {
  const int64_t kStreams = 6, kLength = 20;
  const auto streams = MakeStreams(kStreams, kLength);
  const auto expected = SingleStreamScores(ensemble_.get(), streams);
  // Spread ids so several map to the same shard at 4 shards and the
  // mapping is non-trivial at 16.
  const std::vector<int64_t> ids = {3, 17, 1000003, -4, 0, 271828};

  for (const int64_t num_shards : {int64_t{1}, int64_t{4}, int64_t{16}}) {
    for (const int64_t max_batch : {int64_t{1}, int64_t{3}, int64_t{8}}) {
      for (const int64_t idle : {int64_t{0}, int64_t{1000}}) {
        serve::ServeConfig config;
        config.max_batch = max_batch;
        config.flush_deadline_ms = 0;
        config.num_shards = num_shards;
        serve::ServingEngine engine(ensemble_.get(), config);
        ASSERT_EQ(engine.num_shards(), num_shards);

        std::vector<serve::StreamScore> results;
        // Idle sessions open first and are never pushed.
        for (int64_t i = 0; i < idle; ++i) {
          ASSERT_TRUE(engine.OpenStream(2000000 + i).ok());
        }
        for (int64_t id : ids) ASSERT_TRUE(engine.OpenStream(id).ok());
        // Round-robin interleave: consecutive pushes land on different
        // shards, so every batch mixes co-sharded and foreign streams.
        for (int64_t t = 0; t < kLength; ++t) {
          for (size_t s = 0; s < ids.size(); ++s) {
            ASSERT_TRUE(
                engine.Push(ids[s], Row(streams[s], t), &results).ok());
          }
        }
        ASSERT_TRUE(engine.Flush(&results).ok());

        std::map<int64_t, std::vector<double>> per_stream;
        for (const auto& r : results) {
          per_stream[r.stream_id].push_back(r.score);
        }
        for (size_t s = 0; s < ids.size(); ++s) {
          const auto& got = per_stream[ids[s]];
          const auto& want = expected[s];
          ASSERT_EQ(got.size(), want.size())
              << "stream " << ids[s] << " shards " << num_shards;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << "stream " << ids[s] << " window " << i << " shards "
                << num_shards << " batch " << max_batch << " idle " << idle;
          }
        }
      }
    }
  }
}

// Property: a rejected push (width mismatch here) consumes nothing on ANY
// shard — an engine fed garbage interleaved with good observations ends up
// bitwise identical to one fed only the good observations.
TEST_F(ServeTest, RejectedPushLeavesEveryShardUntouched) {
  const int64_t kStreams = 4, kLength = 15;
  const auto streams = MakeStreams(kStreams, kLength);
  const std::vector<int64_t> ids = {2, 9, 5001, 42};

  for (const int64_t num_shards : {int64_t{1}, int64_t{4}, int64_t{16}}) {
    serve::ServeConfig config;
    config.max_batch = 3;
    config.flush_deadline_ms = 0;
    config.num_shards = num_shards;

    auto run = [&](bool inject_garbage) {
      serve::ServingEngine engine(ensemble_.get(), config);
      std::vector<serve::StreamScore> results;
      for (int64_t id : ids) CAEE_CHECK(engine.OpenStream(id).ok());
      const std::vector<float> bad = {1.0f, 2.0f, 3.0f};  // dims is 2
      int64_t rejected = 0;
      for (int64_t t = 0; t < kLength; ++t) {
        for (size_t s = 0; s < ids.size(); ++s) {
          if (inject_garbage && (t + static_cast<int64_t>(s)) % 3 == 0) {
            const Status status = engine.Push(ids[s], bad, &results);
            CAEE_CHECK(status.code() == StatusCode::kInvalidArgument);
            ++rejected;
          }
          CAEE_CHECK(engine.Push(ids[s], Row(streams[s], t), &results).ok());
        }
      }
      CAEE_CHECK(engine.Flush(&results).ok());
      if (inject_garbage) CAEE_CHECK(rejected > 0);
      return results;
    };

    const auto clean = run(false);
    const auto with_garbage = run(true);
    ASSERT_EQ(clean.size(), with_garbage.size()) << "shards " << num_shards;
    ASSERT_FALSE(clean.empty());
    for (size_t i = 0; i < clean.size(); ++i) {
      EXPECT_EQ(clean[i].stream_id, with_garbage[i].stream_id);
      EXPECT_EQ(clean[i].index, with_garbage[i].index);
      EXPECT_EQ(clean[i].score, with_garbage[i].score)
          << "result " << i << " shards " << num_shards;
    }
  }
}

// Admission control: max_pending bounds each shard's queue, the rejection
// is ResourceExhausted, it consumes nothing, and retrying the SAME
// observation after a flush yields the score an unbounded engine produces.
TEST_F(ServeTest, BackpressureRejectsWithoutConsumingAndRetrySucceeds) {
  const ts::TimeSeries series = testutil::PlantedSeries(20, 2, 9);
  const int64_t w = ensemble_->config().window;

  serve::ServeConfig unbounded;
  unbounded.max_batch = 64;
  unbounded.flush_deadline_ms = 0;
  serve::ServingEngine reference(ensemble_.get(), unbounded);
  std::vector<serve::StreamScore> want;
  ASSERT_TRUE(reference.OpenStream(1).ok());
  for (int64_t t = 0; t < w + 4; ++t) {
    ASSERT_TRUE(reference.Push(1, Row(series, t), &want).ok());
  }
  ASSERT_TRUE(reference.Flush(&want).ok());
  ASSERT_EQ(want.size(), 5u);  // windows w-1 .. w+3

  serve::ServeConfig bounded = unbounded;
  bounded.max_pending = 2;
  serve::ServingEngine engine(ensemble_.get(), bounded);
  std::vector<serve::StreamScore> got;
  ASSERT_TRUE(engine.OpenStream(1).ok());
  int64_t t = 0;
  while (t < w + 4) {
    const Status status = engine.Push(1, Row(series, t), &got);
    if (status.ok()) {
      ++t;
      continue;
    }
    // Pool full: the queue is at its bound, the cursor did not advance,
    // and draining makes the SAME observation admissible.
    ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(engine.pending_windows(), 2);
    ASSERT_TRUE(engine.Flush(&got).ok());
  }
  ASSERT_TRUE(engine.Flush(&got).ok());

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].score, want[i].score) << "window " << i;
  }
}

// Close drains the OWNING shard only: a pending window on another shard
// stays pending (PR 4's single-queue engine drained everything — the
// changed contract docs/serving.md documents).
TEST_F(ServeTest, CloseDrainsOnlyTheOwningShard) {
  const size_t kShards = 4;
  // Find two ids on different shards (the hash spreads, so this finds one
  // within a handful of tries).
  const int64_t id_a = 1;
  int64_t id_b = 2;
  while (serve::ServingEngine::ShardOf(id_b, kShards) ==
         serve::ServingEngine::ShardOf(id_a, kShards)) {
    ++id_b;
  }

  serve::ServeConfig config;
  config.max_batch = 64;
  config.flush_deadline_ms = 0;
  config.num_shards = static_cast<int64_t>(kShards);
  serve::ServingEngine engine(ensemble_.get(), config);
  ASSERT_TRUE(engine.OpenStream(id_a).ok());
  ASSERT_TRUE(engine.OpenStream(id_b).ok());

  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 10);
  const int64_t w = ensemble_->config().window;
  std::vector<serve::StreamScore> results;
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(engine.Push(id_a, Row(series, t), &results).ok());
    ASSERT_TRUE(engine.Push(id_b, Row(series, t), &results).ok());
  }
  EXPECT_EQ(engine.pending_windows(), 2);
  EXPECT_TRUE(results.empty());

  ASSERT_TRUE(engine.CloseStream(id_a, &results).ok());
  ASSERT_EQ(results.size(), 1u);  // id_a's window, and ONLY id_a's
  EXPECT_EQ(results[0].stream_id, id_a);
  EXPECT_EQ(engine.pending_windows(), 1);  // id_b's window survived
  EXPECT_EQ(engine.num_streams(), 1);

  results.clear();
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stream_id, id_b);
}

// Cross-shard aggregates count everything, and MemoryBytes() is exact
// allocation arithmetic (docs/capacity.md "Where the bytes go"). N idle
// sessions (opened, warmed to w-1 observations, nothing pending) sit
// N / shards on each shard; both are powers of two, so every slab holds
// exactly its slots:
//   (a) a slot costs its w x dims float ring, a 16-byte PackedSession and
//       a policy byte, and each shard's StreamIndex grows with it;
//   (b) a SPOT-capable engine adds core::SpotBytesPerStream to EVERY slot,
//       static sessions included, and a kDriftWindow-byte ring per shard;
//   (c) health monitoring adds fixed rings and a canary buffer per shard,
//       whatever N is.
TEST_F(ServeTest, AggregateCountersAndMemoryAccountingSpanShards) {
  const int64_t kStreams = 64;
  const size_t w = static_cast<size_t>(ensemble_->config().window);
  const size_t dims = static_cast<size_t>(ensemble_->input_dim());
  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 12);
  const auto scores = SingleStreamScores(ensemble_.get(), MakeStreams(5, 30));
  const core::SpotInit spot = SpotInitFor(scores);
  std::vector<double> flat;
  for (const auto& s : scores) flat.insert(flat.end(), s.begin(), s.end());
  auto calibrated =
      core::CalibrateHealthRef(flat, std::vector<double>(flat.size(), 0.25));
  ASSERT_TRUE(calibrated.ok());
  const core::HealthRef health = std::move(calibrated).value();

  for (const int64_t num_shards : {int64_t{1}, int64_t{4}}) {
    const size_t shards = static_cast<size_t>(num_shards);
    std::vector<int64_t> ids;
    std::vector<int64_t> on_shard(shards, 0);
    for (int64_t id = 0; static_cast<int64_t>(ids.size()) < kStreams; ++id) {
      int64_t& n = on_shard[serve::ServingEngine::ShardOf(id, shards)];
      if (n < kStreams / num_shards) {
        ++n;
        ids.push_back(id);
      }
    }
    serve::ServeConfig config;
    config.max_batch = 64;
    config.flush_deadline_ms = 0;
    config.num_shards = num_shards;

    // MemoryBytes() before any session opens and with all N idle.
    struct Bytes {
      size_t empty, idle;
    };
    auto measure = [&](bool with_spot, bool with_health,
                       core::ThresholdPolicy policy =
                           core::ThresholdPolicy::kStatic) {
      serve::ServeConfig c = config;
      c.health.enabled = with_health;
      serve::ServingEngine engine(
          ensemble_.get(), c, std::nullopt,
          with_spot ? std::optional<core::SpotInit>(spot) : std::nullopt,
          with_health ? std::optional<core::HealthRef>(health)
                      : std::nullopt);
      Bytes bytes{engine.MemoryBytes(), 0};
      std::vector<serve::StreamScore> results;
      for (int64_t id : ids) {
        CAEE_CHECK(engine.OpenStream(id, policy).ok());
        for (size_t t = 0; t + 1 < w; ++t) {
          CAEE_CHECK(engine.Push(id, Row(series, t), &results).ok());
        }
      }
      CAEE_CHECK(results.empty() && engine.pending_windows() == 0);
      bytes.idle = engine.MemoryBytes();
      return bytes;
    };
    const Bytes plain = measure(false, false);
    const Bytes spot_capable = measure(true, false);
    const Bytes spot_sessions =
        measure(true, false, core::ThresholdPolicy::kSpot);
    const Bytes health_on = measure(false, true);

    serve::StreamIndex index;
    for (int64_t i = 0; i < kStreams / num_shards; ++i) {
      index.Insert(i, static_cast<uint32_t>(i));
    }
    const size_t slots = static_cast<size_t>(kStreams);
    EXPECT_EQ(plain.idle - plain.empty,
              slots * (w * dims * sizeof(float) + 16 + 1) +
                  shards * index.MemoryBytes())
        << "shards " << shards;
    // SPOT state is carried by kSpot sessions only: static sessions on a
    // SPOT-capable engine pay for the drift ring and nothing per stream.
    EXPECT_EQ(spot_capable.idle - plain.idle, shards * serve::kDriftWindow)
        << "shards " << shards;
    EXPECT_EQ(spot_sessions.idle - plain.idle,
              slots * core::SpotBytesPerStream(spot.config) +
                  shards * serve::kDriftWindow)
        << "shards " << shards;
    const size_t health_bytes =
        shards * (serve::kHealthWindow * (1 + 1 + 8) + core::kHealthBins * 8 +
                  static_cast<size_t>(config.health.canary_capacity) * w *
                      dims * sizeof(float));
    EXPECT_EQ(health_on.empty - plain.empty, health_bytes)
        << "shards " << shards;
    EXPECT_EQ(health_on.idle - plain.idle, health_bytes)
        << "shards " << shards;
  }

  serve::ServeConfig config;
  config.max_batch = 64;
  config.flush_deadline_ms = 0;
  config.num_shards = 4;
  serve::ServingEngine engine(ensemble_.get(), config);
  for (int64_t id = 0; id < kStreams; ++id) {
    ASSERT_TRUE(engine.OpenStream(id).ok());
  }
  EXPECT_EQ(engine.num_streams(), kStreams);
  std::vector<serve::StreamScore> results;
  for (int64_t id = 0; id < kStreams; ++id) {
    for (size_t t = 0; t < w; ++t) {
      ASSERT_TRUE(engine.Push(id, Row(series, t), &results).ok());
    }
  }
  EXPECT_EQ(engine.pending_windows(), kStreams);  // spread over 4 shards
  ASSERT_TRUE(engine.Flush(&results).ok());
  EXPECT_EQ(engine.pending_windows(), 0);
  ASSERT_EQ(results.size(), static_cast<size_t>(kStreams));

  for (int64_t id = 0; id < kStreams; ++id) {
    ASSERT_TRUE(engine.CloseStream(id, &results).ok());
  }
  EXPECT_EQ(engine.num_streams(), 0);
}

TEST_F(ServeTest, ThresholdControlsFlag) {
  const ts::TimeSeries series = testutil::PlantedSeries(10, 2, 8);
  const int64_t w = ensemble_->config().window;

  auto score_with_threshold =
      [&](std::optional<double> threshold) -> serve::StreamScore {
    serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{},
                                threshold);
    std::vector<serve::StreamScore> results;
    CAEE_CHECK(engine.OpenStream(1).ok());
    for (int64_t t = 0; t < w; ++t) {
      CAEE_CHECK(engine.Push(1, Row(series, t), &results).ok());
    }
    CAEE_CHECK(engine.Flush(&results).ok());
    CAEE_CHECK(results.size() == 1);
    return results[0];
  };

  const serve::StreamScore no_threshold = score_with_threshold(std::nullopt);
  EXPECT_FALSE(no_threshold.flag);  // no threshold -> never flags
  EXPECT_TRUE(score_with_threshold(no_threshold.score - 1.0).flag);
  EXPECT_FALSE(score_with_threshold(no_threshold.score + 1.0).flag);
}

// ---------------------------------------------------------------------------
// SPOT streaming thresholds (core/spot.h, docs/thresholds.md).
// ---------------------------------------------------------------------------

// Ground truth for SPOT verdicts: each stream's scores through its own
// sequential core::SpotState.
std::vector<std::vector<bool>> SpotReferenceFlags(
    const core::SpotInit& init,
    const std::vector<std::vector<double>>& scores) {
  std::vector<std::vector<bool>> flags(scores.size());
  for (size_t s = 0; s < scores.size(); ++s) {
    core::SpotState state(init);
    for (double score : scores[s]) flags[s].push_back(state.Observe(score));
  }
  return flags;
}

TEST_F(ServeTest, SpotVerdictsBitwiseEqualAcrossShardsBatchesThreads) {
  // The tentpole contract: SPOT verdicts are a pure function of each
  // stream's score sequence, so shard count, batch size, and thread count
  // must not move a single flag — EXPECT_EQ on doubles and bools, no
  // tolerance, against the sequential SpotState reference.
  const int64_t kStreams = 5, kLength = 30;
  const auto streams = MakeStreams(kStreams, kLength);
  const auto expected_scores = SingleStreamScores(ensemble_.get(), streams);
  const core::SpotInit init = SpotInitFor(expected_scores);
  const auto expected_flags = SpotReferenceFlags(init, expected_scores);

  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    ensemble_->set_num_threads(threads);
    for (const int64_t num_shards : {int64_t{1}, int64_t{4}, int64_t{16}}) {
      for (const int64_t max_batch : {int64_t{1}, int64_t{3}, int64_t{8}}) {
        serve::ServeConfig config;
        config.max_batch = max_batch;
        config.flush_deadline_ms = 0;
        config.num_shards = num_shards;
        config.threshold_policy = core::ThresholdPolicy::kSpot;
        serve::ServingEngine engine(ensemble_.get(), config,
                                    /*threshold=*/std::nullopt, init);

        std::vector<serve::StreamScore> results;
        for (int64_t s = 0; s < kStreams; ++s) {
          ASSERT_TRUE(engine.OpenStream(s).ok());
        }
        // Same skewed interleave as the score-determinism test: batches
        // mix streams unevenly and shards fill at different rates.
        std::vector<int64_t> cursor(static_cast<size_t>(kStreams), 0);
        for (int64_t t = 0; t < kLength * (kStreams + 1); ++t) {
          for (int64_t s = 0; s < kStreams; ++s) {
            if (t % (s + 1) != 0) continue;
            int64_t& c = cursor[static_cast<size_t>(s)];
            if (c >= kLength) continue;
            ASSERT_TRUE(
                engine.Push(s, Row(streams[static_cast<size_t>(s)], c),
                            &results)
                    .ok());
            ++c;
          }
        }
        ASSERT_TRUE(engine.Flush(&results).ok());

        std::map<int64_t, std::vector<std::pair<double, bool>>> per_stream;
        for (const auto& r : results) {
          per_stream[r.stream_id].push_back({r.score, r.flag});
        }
        for (int64_t s = 0; s < kStreams; ++s) {
          const auto& got = per_stream[s];
          const auto& want = expected_scores[static_cast<size_t>(s)];
          const auto& want_flags = expected_flags[static_cast<size_t>(s)];
          ASSERT_EQ(got.size(), want.size())
              << "stream " << s << " shards " << num_shards << " batch "
              << max_batch << " threads " << threads;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].first, want[i])
                << "stream " << s << " obs " << i << " shards " << num_shards
                << " batch " << max_batch << " threads " << threads;
            EXPECT_EQ(got[i].second, want_flags[i])
                << "stream " << s << " obs " << i << " shards " << num_shards
                << " batch " << max_batch << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST_F(ServeTest, MixedPoliciesPerSessionOnOneEngine) {
  // One engine, one shard pool: a kStatic and a kSpot session side by
  // side. Each must get ITS policy's verdicts — the packed per-slot policy
  // byte, not the engine default, decides.
  const int64_t kLength = 30;
  const auto streams = MakeStreams(2, kLength);
  const auto expected_scores = SingleStreamScores(ensemble_.get(), streams);
  const core::SpotInit init = SpotInitFor(expected_scores);
  const auto expected_flags = SpotReferenceFlags(init, expected_scores);

  // A static threshold ABOVE every score: the static session never flags,
  // so any flag it raises would be a policy mixup.
  double max_score = 0.0;
  for (const auto& s : expected_scores) {
    for (double v : s) max_score = std::max(max_score, v);
  }

  serve::ServeConfig config;
  config.flush_deadline_ms = 0;
  config.num_shards = 4;
  serve::ServingEngine engine(ensemble_.get(), config, max_score + 1.0, init);
  std::vector<serve::StreamScore> results;
  ASSERT_TRUE(engine.OpenStream(0).ok());  // engine default: kStatic
  ASSERT_TRUE(engine.OpenStream(1, core::ThresholdPolicy::kSpot).ok());
  for (int64_t t = 0; t < kLength; ++t) {
    ASSERT_TRUE(engine.Push(0, Row(streams[0], t), &results).ok());
    ASSERT_TRUE(engine.Push(1, Row(streams[1], t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());

  std::map<int64_t, std::vector<bool>> flags;
  for (const auto& r : results) flags[r.stream_id].push_back(r.flag);
  ASSERT_EQ(flags[0].size(), expected_scores[0].size());
  ASSERT_EQ(flags[1].size(), expected_scores[1].size());
  for (bool f : flags[0]) EXPECT_FALSE(f);  // static, threshold above all
  for (size_t i = 0; i < flags[1].size(); ++i) {
    EXPECT_EQ(flags[1][i], expected_flags[1][i]) << "spot obs " << i;
  }

  // The same engine re-serving stream 1 as kStatic after a close: fresh
  // slot, fresh policy — a recycled SPOT slot must not leak its policy.
  ASSERT_TRUE(engine.CloseStream(1, &results).ok());
  ASSERT_TRUE(engine.OpenStream(1).ok());
  results.clear();
  for (int64_t t = 0; t < kLength; ++t) {
    ASSERT_TRUE(engine.Push(1, Row(streams[1], t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  for (const auto& r : results) EXPECT_FALSE(r.flag);
}

TEST_F(ServeTest, SpotSessionWithoutInitParamsIsFailedPrecondition) {
  serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{});
  EXPECT_EQ(engine.OpenStream(1, core::ThresholdPolicy::kSpot).code(),
            StatusCode::kFailedPrecondition);
  // The failed open must not leak a session.
  EXPECT_EQ(engine.num_streams(), 0);
  EXPECT_TRUE(engine.OpenStream(1).ok());
}

TEST_F(ServeTest, NonFiniteObservationRejectedWithoutConsuming) {
  // Satellite 1 at the serve boundary: a NaN observation is refused with
  // InvalidArgument BEFORE any cursor moves, so the session keeps scoring
  // bitwise-identically to a run that never saw the poison.
  const auto streams = MakeStreams(1, 20);
  const auto expected = SingleStreamScores(ensemble_.get(), streams);

  serve::ServingEngine engine(ensemble_.get(), serve::ServeConfig{});
  std::vector<serve::StreamScore> results;
  ASSERT_TRUE(engine.OpenStream(0).ok());
  std::vector<float> poison(2, 1.0f);
  for (int64_t t = 0; t < 20; ++t) {
    if (t % 5 == 0) {
      poison[t % 2] = std::numeric_limits<float>::quiet_NaN();
      EXPECT_EQ(engine.Push(0, poison, &results).code(),
                StatusCode::kInvalidArgument);
      poison[t % 2] = std::numeric_limits<float>::infinity();
      EXPECT_EQ(engine.Push(0, poison, &results).code(),
                StatusCode::kInvalidArgument);
      poison[t % 2] = 1.0f;
    }
    ASSERT_TRUE(engine.Push(0, Row(streams[0], t), &results).ok());
  }
  ASSERT_TRUE(engine.Flush(&results).ok());
  ASSERT_EQ(results.size(), expected[0].size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].score, expected[0][i]) << "obs " << i;
  }
}

TEST_F(ServeTest, StatsCountScoresAlertsAndDrift) {
  const int64_t kLength = 30;
  const auto streams = MakeStreams(2, kLength);
  const auto expected_scores = SingleStreamScores(ensemble_.get(), streams);
  const core::SpotInit init = SpotInitFor(expected_scores);

  serve::ServeConfig config;
  config.flush_deadline_ms = 0;
  config.num_shards = 4;
  config.threshold_policy = core::ThresholdPolicy::kSpot;
  serve::ServingEngine engine(ensemble_.get(), config, std::nullopt, init);
  std::vector<serve::StreamScore> results;
  for (int64_t s = 0; s < 2; ++s) ASSERT_TRUE(engine.OpenStream(s).ok());
  for (int64_t t = 0; t < kLength; ++t) {
    for (int64_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(engine.Push(s, Row(streams[s], t), &results).ok());
    }
  }
  ASSERT_TRUE(engine.Flush(&results).ok());

  int64_t flagged = 0;
  for (const auto& r : results) flagged += r.flag ? 1 : 0;
  const serve::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.scored_windows, static_cast<int64_t>(results.size()));
  EXPECT_EQ(stats.alerts, flagged);
  EXPECT_EQ(stats.non_finite_scores, 0);  // finite input -> finite scores
  EXPECT_GE(stats.drift, 0.0);
  EXPECT_LE(stats.drift, 1.0);
  EXPECT_GT(stats.drift_window, 0);
}

}  // namespace
}  // namespace caee
