// The request path of caee_serve, in process: serve::Dispatcher (one
// request frame -> one engine call -> scores and one reply) and the text
// codec of serve/text_protocol.h that turns lines into those frames.
//
// Pinned here:
//   - each request type's engine effect and its reply, in wire order;
//   - the ResourceExhausted -> backpressure mapping and the unknown-type
//     error;
//   - text lines and binary frames of one multi-stream session giving
//     identical scores, flags and rendered output;
//   - the one-stream engine behind single-stream mode matching
//     core::StreamingScorer bit for bit, verdicts included.

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/streaming.h"
#include "serve/dispatcher.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "serve/text_protocol.h"
#include "test_util.h"

namespace caee {
namespace {

namespace fr = serve::framing;
namespace text = serve::text;
using serve::StreamScore;

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

// What one Dispatch call handed its sink, in call order.
struct Recorder : serve::ResponseSink {
  std::string order;  // 's' scores, 'g' reloaded, 'r' reply
  std::vector<StreamScore> scores;
  std::vector<fr::Frame> replies;
  std::vector<Status> statuses;
  int64_t reloaded_generation = 0;

  void Scores(const std::vector<StreamScore>& batch) override {
    EXPECT_FALSE(batch.empty());
    order += 's';
    scores.insert(scores.end(), batch.begin(), batch.end());
  }
  void Reply(const fr::Frame& reply, const Status& status) override {
    order += 'r';
    replies.push_back(reply);
    statuses.push_back(status);
  }
  void Reloaded(int64_t generation, const std::string&) override {
    order += 'g';
    reloaded_generation = generation;
  }
  void Clear() { *this = Recorder(); }

  fr::FrameType reply_type() const {
    EXPECT_EQ(replies.size(), 1u);
    return replies.empty() ? fr::FrameType{} : replies[0].frame_type();
  }
  // The code an error reply carries on the wire.
  StatusCode error_code() const {
    Status error;
    EXPECT_TRUE(fr::ParseError(replies.at(0), &error).ok());
    return error.code();
  }
};

fr::Frame Observe(int64_t id, const ts::TimeSeries& s, int64_t t) {
  return fr::MakeObserveFrame(
      id, std::vector<float>(s.row(t), s.row(t) + s.dims()));
}

// `v1,v2,...` with enough digits that std::stof reads back the same float.
std::string ValuesText(const ts::TimeSeries& s, int64_t t) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (int64_t d = 0; d < s.dims(); ++d) {
    out << (d > 0 ? "," : "") << s.row(t)[d];
  }
  return out.str();
}

class DispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = testutil::PlantedSeries(250, 2, 1);
    ensemble_ = std::make_unique<core::CaeEnsemble>(TinyConfig());
    ASSERT_TRUE(ensemble_->Fit(train_).ok());
    auto scores = ensemble_->Score(train_);
    ASSERT_TRUE(scores.ok());
    core::SpotConfig spot;
    spot.level = 0.8;
    spot.q = 0.05;
    spot.peak_capacity = 16;
    auto init = core::CalibrateSpot(scores.value(), spot);
    ASSERT_TRUE(init.ok());
    spot_ = init.value();
    std::vector<double> dispersions(scores->size(), 0.25);
    auto health = core::CalibrateHealthRef(scores.value(), dispersions);
    ASSERT_TRUE(health.ok());
    health_ = health.value();
    series_ = testutil::PlantedSeries(40, 2, 7, {25});
  }

  serve::ServeConfig Config(int64_t max_batch) const {
    serve::ServeConfig config;
    config.max_batch = max_batch;
    config.flush_deadline_ms = 0;
    return config;
  }

  ts::TimeSeries train_;
  ts::TimeSeries series_;
  std::unique_ptr<core::CaeEnsemble> ensemble_;
  core::SpotInit spot_;
  core::HealthRef health_;
};

TEST_F(DispatcherTest, OpenRepliesOkAndRejectionsAreErrorReplies) {
  serve::ServingEngine engine(ensemble_.get(), Config(8));
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;

  dispatcher.Dispatch(fr::MakeOpenFrame(3), &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kOk);
  EXPECT_EQ(sink.replies[0].stream_id, 3);
  EXPECT_TRUE(sink.statuses[0].ok());
  EXPECT_EQ(engine.num_streams(), 1);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeOpenFrame(3), &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kError);
  EXPECT_EQ(sink.error_code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sink.statuses[0].code(), StatusCode::kFailedPrecondition);

  // No SPOT params on this engine: a spot session cannot open.
  sink.Clear();
  dispatcher.Dispatch(fr::MakeOpenFrame(4, core::ThresholdPolicy::kSpot),
                      &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kError);

  // A malformed policy byte is answered, and opens nothing.
  sink.Clear();
  fr::Frame bad = fr::MakeOpenFrame(5);
  bad.payload = {9};
  dispatcher.Dispatch(bad, &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kError);
  EXPECT_EQ(sink.error_code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_streams(), 1);
  EXPECT_TRUE(sink.scores.empty());
}

TEST_F(DispatcherTest, ObserveIsAnsweredByItsScoresAlone) {
  serve::ServingEngine engine(ensemble_.get(), Config(1));
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;
  dispatcher.Dispatch(fr::MakeOpenFrame(1), &sink);
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {
    sink.Clear();
    dispatcher.Dispatch(Observe(1, series_, t), &sink);
    EXPECT_TRUE(sink.replies.empty());
    EXPECT_EQ(sink.order, t + 1 < w ? "" : "s");
  }
  ASSERT_EQ(sink.scores.size(), 1u);
  EXPECT_EQ(sink.scores[0].stream_id, 1);
  EXPECT_EQ(sink.scores[0].index, w - 1);

  // Rejections are error replies with the engine's code.
  sink.Clear();
  dispatcher.Dispatch(Observe(2, series_, 0), &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kError);
  EXPECT_EQ(sink.error_code(), StatusCode::kNotFound);
  EXPECT_EQ(sink.replies[0].stream_id, 2);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeObserveFrame(1, {1.0f, 2.0f, 3.0f}), &sink);
  EXPECT_EQ(sink.error_code(), StatusCode::kInvalidArgument);

  sink.Clear();
  fr::Frame truncated = Observe(1, series_, 0);
  truncated.payload.pop_back();
  dispatcher.Dispatch(truncated, &sink);
  EXPECT_EQ(sink.error_code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(sink.scores.empty());
}

TEST_F(DispatcherTest, CloseDeliversPendingScoresBeforeItsOk) {
  serve::ServingEngine engine(ensemble_.get(), Config(8));
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;
  dispatcher.Dispatch(fr::MakeOpenFrame(1), &sink);
  for (int64_t t = 0; t < ensemble_->config().window + 1; ++t) {
    dispatcher.Dispatch(Observe(1, series_, t), &sink);
  }
  EXPECT_EQ(engine.pending_windows(), 2);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeCloseFrame(1), &sink);
  EXPECT_EQ(sink.order, "sr");
  EXPECT_EQ(sink.scores.size(), 2u);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kOk);
  EXPECT_EQ(engine.num_streams(), 0);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeCloseFrame(1), &sink);
  EXPECT_EQ(sink.order, "r");
  EXPECT_EQ(sink.error_code(), StatusCode::kNotFound);
}

TEST_F(DispatcherTest, FlushIsAnsweredByItsScoresAlone) {
  serve::ServingEngine engine(ensemble_.get(), Config(8));
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;
  dispatcher.Dispatch(fr::MakeOpenFrame(1), &sink);
  dispatcher.Dispatch(fr::MakeOpenFrame(2), &sink);
  for (int64_t t = 0; t < ensemble_->config().window; ++t) {
    dispatcher.Dispatch(Observe(1, series_, t), &sink);
    dispatcher.Dispatch(Observe(2, series_, t), &sink);
  }
  sink.Clear();
  dispatcher.Dispatch(fr::MakeFlushFrame(), &sink);
  EXPECT_EQ(sink.order, "s");
  EXPECT_EQ(sink.scores.size(), 2u);
  EXPECT_EQ(engine.pending_windows(), 0);

  // Nothing pending: no scores and still no reply.
  sink.Clear();
  dispatcher.Dispatch(fr::MakeFlushFrame(), &sink);
  EXPECT_EQ(sink.order, "");
}

TEST_F(DispatcherTest, AFullShardIsABackpressureReplyThatConsumesNothing) {
  serve::ServeConfig config = Config(8);
  config.max_pending = 1;
  serve::ServingEngine engine(ensemble_.get(), config);
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;
  dispatcher.Dispatch(fr::MakeOpenFrame(1), &sink);
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {
    dispatcher.Dispatch(Observe(1, series_, t), &sink);
  }
  ASSERT_EQ(engine.pending_windows(), 1);

  sink.Clear();
  dispatcher.Dispatch(Observe(1, series_, w), &sink);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kBackpressure);
  EXPECT_EQ(sink.replies[0].stream_id, 1);
  EXPECT_TRUE(sink.replies[0].payload.empty());
  EXPECT_EQ(sink.statuses[0].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.pending_windows(), 1);

  // Drained, the SAME observation is accepted and scores index w.
  dispatcher.Dispatch(fr::MakeFlushFrame(), &sink);
  sink.Clear();
  dispatcher.Dispatch(Observe(1, series_, w), &sink);
  dispatcher.Dispatch(fr::MakeFlushFrame(), &sink);
  ASSERT_EQ(sink.scores.size(), 1u);
  EXPECT_EQ(sink.scores[0].index, w);
  EXPECT_TRUE(sink.replies.empty());
}

TEST_F(DispatcherTest, ReloadRepliesOkAfterTheSwapAndErrorWhenRejected) {
  serve::ServingEngine engine(ensemble_.get(), Config(8));
  engine.set_load_retry_policy(serve::LoadRetryPolicy{1, 0});
  serve::Dispatcher dispatcher(&engine);
  const std::string path = ::testing::TempDir() + "/dispatcher_reload.caee";
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path).ok());

  Recorder sink;
  dispatcher.Dispatch(fr::MakeReloadFrame(path), &sink);
  EXPECT_EQ(sink.order, "gr");
  EXPECT_EQ(sink.reloaded_generation, 2);
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kOk);
  EXPECT_EQ(engine.generation(), 2);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeReloadFrame(path + ".missing"), &sink);
  EXPECT_EQ(sink.order, "r");
  EXPECT_EQ(sink.reply_type(), fr::FrameType::kError);
  EXPECT_FALSE(sink.statuses[0].ok());
  EXPECT_EQ(engine.generation(), 2);

  sink.Clear();
  dispatcher.Dispatch(fr::MakeReloadFrame(""), &sink);
  EXPECT_EQ(sink.error_code(), StatusCode::kInvalidArgument);

  // A directory is rejected like any unreadable artifact.
  sink.Clear();
  dispatcher.Dispatch(fr::MakeReloadFrame(::testing::TempDir()), &sink);
  EXPECT_EQ(sink.error_code(), StatusCode::kIOError);
  EXPECT_EQ(engine.generation(), 2);
  EXPECT_EQ(engine.Stats().reloads, 1);
}

TEST_F(DispatcherTest, HealthRepliesWithTheEngineGauges) {
  {
    serve::ServingEngine engine(ensemble_.get(), Config(8));
    serve::Dispatcher dispatcher(&engine);
    Recorder sink;
    dispatcher.Dispatch(fr::MakeHealthFrame(), &sink);
    ASSERT_EQ(sink.reply_type(), fr::FrameType::kHealthStatus);
    fr::HealthStatus hs;
    ASSERT_TRUE(fr::ParseHealthStatus(sink.replies[0], &hs).ok());
    EXPECT_FALSE(hs.enabled);
    EXPECT_EQ(hs.generation, 1);
  }
  serve::ServeConfig config = Config(1);
  config.health.enabled = true;
  serve::ServingEngine engine(ensemble_.get(), config, std::nullopt,
                              std::nullopt, health_);
  serve::Dispatcher dispatcher(&engine);
  Recorder sink;
  dispatcher.Dispatch(fr::MakeOpenFrame(1), &sink);
  for (int64_t t = 0; t < series_.length(); ++t) {
    dispatcher.Dispatch(Observe(1, series_, t), &sink);
  }
  sink.Clear();
  dispatcher.Dispatch(fr::MakeHealthFrame(), &sink);
  ASSERT_EQ(sink.reply_type(), fr::FrameType::kHealthStatus);
  fr::HealthStatus hs;
  ASSERT_TRUE(fr::ParseHealthStatus(sink.replies[0], &hs).ok());
  const serve::EngineStats stats = engine.Stats();
  EXPECT_TRUE(hs.enabled);
  EXPECT_EQ(hs.generation, stats.generation);
  EXPECT_EQ(hs.window, stats.health_window);
  EXPECT_GT(hs.window, 0);
  EXPECT_EQ(hs.score_shift, stats.score_shift);
  EXPECT_EQ(hs.dispersion_ratio, stats.dispersion_ratio);
  EXPECT_EQ(hs.non_finite_rate, stats.non_finite_rate);
  EXPECT_EQ(hs.alert_rate, stats.alert_rate);
  EXPECT_EQ(hs.rollbacks, stats.rollbacks);
  EXPECT_EQ(hs.canary_rejections, stats.canary_rejections);
}

TEST_F(DispatcherTest, AnUnknownTypeIsAnErrorReplyNamingIt) {
  serve::ServingEngine engine(ensemble_.get(), Config(8));
  serve::Dispatcher dispatcher(&engine);
  // 16 is kScore: a response type is no request either.
  for (const int type : {0, 7, 99, 16}) {
    Recorder sink;
    fr::Frame frame;
    frame.type = static_cast<uint8_t>(type);
    frame.stream_id = 42;
    dispatcher.Dispatch(frame, &sink);
    ASSERT_EQ(sink.reply_type(), fr::FrameType::kError);
    EXPECT_EQ(sink.replies[0].stream_id, 42);
    Status error;
    ASSERT_TRUE(fr::ParseError(sink.replies[0], &error).ok());
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
    const std::string want = "unknown frame type " + std::to_string(type);
    EXPECT_NE(error.message().find(want), std::string::npos);
  }
  EXPECT_EQ(engine.num_streams(), 0);
}

TEST(TextProtocolTest, ParseRequestMapsEveryLineForm) {
  fr::Frame frame;
  ASSERT_TRUE(text::ParseRequest("open,3", &frame).ok());
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kOpen);
  EXPECT_EQ(frame.stream_id, 3);
  EXPECT_TRUE(frame.payload.empty());

  ASSERT_TRUE(text::ParseRequest("open,-4,spot", &frame).ok());
  std::optional<core::ThresholdPolicy> policy;
  ASSERT_TRUE(fr::ParseOpenPolicy(frame, &policy).ok());
  EXPECT_EQ(frame.stream_id, -4);
  EXPECT_EQ(policy, core::ThresholdPolicy::kSpot);

  ASSERT_TRUE(text::ParseRequest("close,3", &frame).ok());
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kClose);
  EXPECT_EQ(frame.stream_id, 3);

  ASSERT_TRUE(text::ParseRequest("7,0.5,-1.25,0x1p3", &frame).ok());
  std::vector<float> values;
  ASSERT_TRUE(fr::ParseObserve(frame, &values).ok());
  EXPECT_EQ(frame.stream_id, 7);
  EXPECT_EQ(values, (std::vector<float>{0.5f, -1.25f, 8.0f}));

  ASSERT_TRUE(text::ParseRequest("reload,a,b.caee", &frame).ok());
  std::string path;
  ASSERT_TRUE(fr::ParseReload(frame, &path).ok());
  EXPECT_EQ(path, "a,b.caee");

  ASSERT_TRUE(text::ParseRequest("health", &frame).ok());
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kHealth);
}

TEST(TextProtocolTest, ParseRequestRejectsMalformedLines) {
  for (const char* line :
       {"", "open", "open,", "open,x", "open,3,bogus", "close,3,spot",
        "close,3x", "3", "x,1", "3,1,,2", "3,abc", "3,1e39", "health,",
        "Health", "open,18446744073709551616"}) {
    fr::Frame frame;
    const Status status = text::ParseRequest(line, &frame);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(TextProtocolTest, ARequestThatCannotFitOneFrameIsRejected) {
  const size_t max_path = fr::kMaxPayloadBytes - sizeof(uint32_t);
  fr::Frame frame;
  const std::string path(max_path, 'a');
  EXPECT_EQ(text::ParseRequest("reload," + path + "a", &frame).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(text::ParseRequest("reload," + path, &frame).ok());
  std::ostringstream wire;
  fr::WriteFrame(wire, frame);  // CHECKs the bound
  EXPECT_EQ(wire.str().size(), size_t{4} + fr::kMaxFrameBytes);

  const size_t max_values = max_path / sizeof(float);
  std::string values = "0";
  for (size_t i = 1; i < max_values; ++i) values += ",0";
  ASSERT_TRUE(text::ParseRequest("1," + values, &frame).ok());
  std::ostringstream observe_wire;
  fr::WriteFrame(observe_wire, frame);
  EXPECT_EQ(text::ParseRequest("1," + values + ",0", &frame).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(text::ParseObserve(values + ",0", 0, &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST(TextProtocolTest, WriteResponseRendersEveryResponseType) {
  StreamScore score;
  score.stream_id = 2;
  score.index = 9;
  score.score = 0.25;
  score.flag = true;
  std::ostringstream out, log;
  ASSERT_TRUE(text::WriteResponse(fr::MakeScoreFrame(score), out, log).ok());
  ASSERT_TRUE(text::WriteResponse(fr::MakeOkFrame(2), out, log).ok());
  EXPECT_EQ(out.str(), "2,9,0.25,1\n");
  EXPECT_EQ(log.str(), "");

  const Status gone = Status::NotFound("gone");
  ASSERT_TRUE(text::WriteResponse(fr::MakeBackpressureFrame(2), out, log).ok());
  ASSERT_TRUE(text::WriteResponse(fr::MakeErrorFrame(3, gone), out, log).ok());
  const fr::Frame health = fr::MakeHealthStatusFrame(fr::HealthStatus{});
  ASSERT_TRUE(text::WriteResponse(health, out, log).ok());
  EXPECT_EQ(log.str(),
            "backpressure: stream 2 rejected (shard pending pool full)\n"
            "server error for stream 3: NotFound: gone\n"
            "health: monitoring off (serve with --health)\n");
  EXPECT_EQ(out.str(), "2,9,0.25,1\n");
  EXPECT_EQ(text::WriteResponse(fr::MakeOpenFrame(1), out, log).code(),
            StatusCode::kInvalidArgument);
}

// The CI round-trip, in process: one multi-stream session as text lines
// through the text codec, and as request frames over a byte stream, each
// into its own engine. Scores, flags and the rendered output must agree
// exactly.
TEST_F(DispatcherTest, TextAndBinaryCodecsServeOneSessionIdentically) {
  std::vector<std::string> lines = {"open,0", "open,1,spot", "open,2"};
  for (int64_t t = 0; t < series_.length(); ++t) {
    for (int64_t s = 0; s < 3; ++s) {
      if ((t + s) % 4 == 0) continue;       // streams drift apart
      if (s == 2 && t > 20 && t <= 24) continue;  // closed meanwhile
      lines.push_back(std::to_string(s) + "," + ValuesText(series_, t));
    }
    if (t == 20) lines.push_back("close,2");
    if (t == 24) lines.push_back("open,2,static");
  }
  lines.push_back("close,0");

  serve::ServeConfig config = Config(3);
  config.num_shards = 2;
  serve::ServingEngine text_engine(ensemble_.get(), config, 1.0, spot_);
  serve::ServingEngine binary_engine(ensemble_.get(), config, 1.0, spot_);
  serve::Dispatcher text_dispatcher(&text_engine);
  serve::Dispatcher binary_dispatcher(&binary_engine);

  Recorder text_sink;
  std::ostringstream wire;
  for (const std::string& line : lines) {
    fr::Frame request;
    ASSERT_TRUE(text::ParseRequest(line, &request).ok()) << line;
    text_dispatcher.Dispatch(request, &text_sink);
    fr::WriteFrame(wire, request);
  }
  Recorder binary_sink;
  std::istringstream in(wire.str());
  fr::Frame request;
  for (bool eof = false;;) {
    ASSERT_TRUE(fr::ReadFrame(in, &request, &eof).ok());
    if (eof) break;
    binary_dispatcher.Dispatch(request, &binary_sink);
  }
  std::vector<StreamScore> text_drain, binary_drain;
  ASSERT_TRUE(text_engine.Flush(&text_drain).ok());
  ASSERT_TRUE(binary_engine.Flush(&binary_drain).ok());
  ASSERT_EQ(text_drain.size(), binary_drain.size());
  if (!text_drain.empty()) {
    text_sink.Scores(text_drain);
    binary_sink.Scores(binary_drain);
  }

  ASSERT_GT(text_sink.scores.size(), 60u);
  ASSERT_EQ(text_sink.scores.size(), binary_sink.scores.size());
  int64_t flags = 0;
  std::ostringstream text_out, binary_out, log;
  text_out.precision(std::numeric_limits<double>::max_digits10);
  binary_out.precision(std::numeric_limits<double>::max_digits10);
  for (size_t i = 0; i < text_sink.scores.size(); ++i) {
    const StreamScore& a = text_sink.scores[i];
    const StreamScore& b = binary_sink.scores[i];
    EXPECT_EQ(a.stream_id, b.stream_id);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.flag, b.flag);
    flags += a.flag;
    text::WriteScore(text_out, a);
    const fr::Frame frame = fr::MakeScoreFrame(b);
    ASSERT_TRUE(text::WriteResponse(frame, binary_out, log).ok());
  }
  EXPECT_EQ(text_out.str(), binary_out.str());
  EXPECT_GT(flags, 0);
  // Acks only: every open and close was answered ok, in both codecs.
  EXPECT_EQ(text_sink.replies.size(), 6u);
  EXPECT_EQ(binary_sink.order, text_sink.order);
  for (const fr::Frame& reply : binary_sink.replies) {
    EXPECT_EQ(reply.frame_type(), fr::FrameType::kOk);
  }
}

// Single-stream mode is the engine with one stream, max_batch 1 and no
// deadline, fed by the line codec with stream id 0. Every window must
// score as its observation arrives, bitwise equal to core::StreamingScorer,
// with static and SPOT verdicts equal to their sequential references.
TEST_F(DispatcherTest, OneStreamEngineMatchesStreamingScorerBitwise) {
  // A static threshold at the median score, so both verdicts occur.
  std::vector<double> reference;
  core::StreamingScorer probe(ensemble_.get());
  for (int64_t t = 0; t < series_.length(); ++t) {
    auto score = probe.Push(std::vector<float>(
        series_.row(t), series_.row(t) + series_.dims()));
    ASSERT_TRUE(score.ok());
    if (score->has_value()) reference.push_back(score->value());
  }
  std::sort(reference.begin(), reference.end());
  const double threshold = reference[reference.size() / 2];

  for (const core::ThresholdPolicy policy :
       {core::ThresholdPolicy::kStatic, core::ThresholdPolicy::kSpot}) {
    serve::ServeConfig config = Config(1);
    config.threshold_policy = policy;
    serve::ServingEngine engine(ensemble_.get(), config, threshold, spot_);
    ASSERT_TRUE(engine.OpenStream(0).ok());
    serve::Dispatcher dispatcher(&engine);

    core::StreamingScorer scorer(ensemble_.get());
    core::SpotState spot(spot_);
    int64_t scored = 0, flags = 0;
    for (int64_t t = 0; t < series_.length(); ++t) {
      fr::Frame request;
      const std::string line = ValuesText(series_, t);
      ASSERT_TRUE(text::ParseObserve(line, 0, &request).ok());
      Recorder sink;
      dispatcher.Dispatch(request, &sink);
      EXPECT_TRUE(sink.replies.empty());

      auto want = scorer.Push(std::vector<float>(
          series_.row(t), series_.row(t) + series_.dims()));
      ASSERT_TRUE(want.ok());
      if (!want->has_value()) {
        EXPECT_TRUE(sink.scores.empty()) << "t=" << t;
        continue;
      }
      ASSERT_EQ(sink.scores.size(), 1u) << "t=" << t;
      const StreamScore& got = sink.scores[0];
      EXPECT_EQ(got.stream_id, 0);
      EXPECT_EQ(got.index, t);
      EXPECT_EQ(got.score, want->value()) << "t=" << t;
      const bool flag = policy == core::ThresholdPolicy::kSpot
                            ? spot.Observe(want->value())
                            : core::ThresholdExceeded(want->value(),
                                                      threshold);
      EXPECT_EQ(got.flag, flag) << "t=" << t;
      ++scored;
      flags += got.flag;
    }
    EXPECT_EQ(scored, series_.length() - ensemble_->config().window + 1);
    EXPECT_GT(flags, 0);
    EXPECT_EQ(engine.pending_windows(), 0);
  }
}

}  // namespace
}  // namespace caee
