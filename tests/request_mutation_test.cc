// Seeded mutation test of caee_serve's request path: the text-protocol
// parser (serve/text_protocol.h), the frame reader (serve/framing.h) and
// serve::Dispatcher, against one small engine.
//
// A seed corpus of valid text lines and request frames is mutated with
// byte flips, truncation, duplication, and numeric edge strings ("1e39",
// "nan", " 1", "0x1p3", "-0", 20-digit ids, ...). Every result goes
// through the parser and, when it parses, the dispatcher. Each must end
// in a parse error or in exactly one outcome: one reply frame, or — for an
// observe or flush that succeeded — its scores alone. Nothing may crash;
// the sanitizer build runs this same test under ASan/UBSan, where
// undefined behaviour fails it. The mutator is an in-tree seeded RNG, so a
// failure reproduces exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "serve/dispatcher.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "serve/text_protocol.h"
#include "test_util.h"

namespace caee {
namespace {

namespace fr = serve::framing;

const char* const kNumericEdges[] = {
    "1e39", "-1e39", "nan", "-nan", "inf", "-inf", " 1", "1 ", "0x1p3", "-0",
    "+0", "", "1e-46", "3.4028235e38", "0x", "18446744073709551616",
    "99999999999999999999", "-9223372036854775808", "9223372036854775807"};

// Counts what one Dispatch handed the sink and checks each reply is a
// well-formed response frame that survives the wire.
struct OutcomeCounter : serve::ResponseSink {
  int64_t replies = 0;
  int64_t scores = 0;
  fr::FrameType reply_type = fr::FrameType::kOk;

  void Scores(const std::vector<serve::StreamScore>& batch) override {
    EXPECT_FALSE(batch.empty());
    scores += static_cast<int64_t>(batch.size());
  }
  void Reply(const fr::Frame& reply, const Status& status) override {
    ++replies;
    reply_type = reply.frame_type();
    switch (reply.frame_type()) {
      case fr::FrameType::kOk:
        EXPECT_TRUE(status.ok());
        break;
      case fr::FrameType::kError: {
        EXPECT_FALSE(status.ok());
        Status error;
        EXPECT_TRUE(fr::ParseError(reply, &error).ok());
        EXPECT_FALSE(error.ok());
        break;
      }
      case fr::FrameType::kBackpressure:
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
        break;
      case fr::FrameType::kHealthStatus: {
        fr::HealthStatus health;
        EXPECT_TRUE(fr::ParseHealthStatus(reply, &health).ok());
        break;
      }
      default:
        ADD_FAILURE() << "reply of type " << int{reply.type};
    }
    std::stringstream wire;
    fr::WriteFrame(wire, reply);
    fr::Frame back;
    bool eof = false;
    EXPECT_TRUE(fr::ReadFrame(wire, &back, &eof).ok());
  }
};

class RequestMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::EnsembleConfig cfg;
    cfg.cae.embed_dim = 4;
    cfg.cae.num_layers = 1;
    cfg.window = 4;
    cfg.num_models = 2;
    cfg.epochs_per_model = 1;
    cfg.batch_size = 32;
    cfg.max_train_windows = 48;
    cfg.seed = 5;
    const ts::TimeSeries train = testutil::PlantedSeries(160, 2, 3);
    ensemble_ = std::make_unique<core::CaeEnsemble>(cfg);
    ASSERT_TRUE(ensemble_->Fit(train).ok());
    auto scores = ensemble_->Score(train);
    ASSERT_TRUE(scores.ok());
    core::SpotConfig spot;
    spot.level = 0.8;
    spot.q = 0.05;
    spot.peak_capacity = 8;
    auto init = core::CalibrateSpot(scores.value(), spot);
    ASSERT_TRUE(init.ok());
    spot_ = init.value();
    std::vector<double> dispersions(scores->size(), 0.25);
    auto health = core::CalibrateHealthRef(scores.value(), dispersions);
    ASSERT_TRUE(health.ok());
    health_ = health.value();
    artifact_ = ::testing::TempDir() + "/request_mutation.caee";
    const Status saved =
        core::SaveEnsemble(*ensemble_, artifact_, 1.0, &spot_, &health_);
    ASSERT_TRUE(saved.ok());

    serve::ServeConfig config;
    config.max_batch = 4;
    config.flush_deadline_ms = 0;
    config.num_shards = 2;
    config.max_pending = 2;
    config.drift_threshold = 0.3;
    config.health.enabled = true;
    config.health.min_window = 8;
    config.health.probation_windows = 16;
    config.health.canary_min_windows = 4;
    engine_ = std::make_unique<serve::ServingEngine>(
        ensemble_.get(), config, 1.0, spot_, health_);
    engine_->set_load_retry_policy(serve::LoadRetryPolicy{1, 0});
    dispatcher_ = std::make_unique<serve::Dispatcher>(engine_.get());
  }

  // One request through the dispatcher, checked against the reply rule,
  // then the monitor poll caee_serve runs after every request.
  void Dispatch(const fr::Frame& request) {
    OutcomeCounter sink;
    dispatcher_->Dispatch(request, &sink);
    engine_->PollHealth();
    const fr::FrameType type = request.frame_type();
    if (sink.replies == 0) {
      EXPECT_TRUE(type == fr::FrameType::kObserve ||
                  type == fr::FrameType::kFlush)
          << "type " << int{request.type} << " got no reply";
    } else {
      EXPECT_EQ(sink.replies, 1) << "type " << int{request.type};
    }
    ++dispatched_;
    scored_ += sink.scores;
    if (sink.replies > 0) ++replies_by_type_[sink.reply_type];
  }

  // Every kind of outcome occurred, and the engine still drains.
  void ExpectFullCoverage() {
    EXPECT_GT(scored_, 0);
    EXPECT_GT(replies_by_type_[fr::FrameType::kOk], 0);
    EXPECT_GT(replies_by_type_[fr::FrameType::kError], 0);
    EXPECT_GT(replies_by_type_[fr::FrameType::kBackpressure], 0);
    EXPECT_GT(replies_by_type_[fr::FrameType::kHealthStatus], 0);
    std::vector<serve::StreamScore> drained;
    EXPECT_TRUE(engine_->Flush(&drained).ok());
  }

  std::vector<std::string> SeedLines() const {
    return {"open,1", "open,2,spot", "open,3,static", "1,0.5,-1.25", "2,3,4",
            "3,1e-3,2e3", "1,0,0", "close,1", "health", "reload," + artifact_,
            "reload," + artifact_ + ".missing", "open,-7", "-7,1.5,2.5"};
  }

  std::unique_ptr<core::CaeEnsemble> ensemble_;
  core::SpotInit spot_;
  core::HealthRef health_;
  std::string artifact_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::unique_ptr<serve::Dispatcher> dispatcher_;
  int64_t dispatched_ = 0;
  int64_t scored_ = 0;
  std::map<fr::FrameType, int64_t> replies_by_type_;
};

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (fields.empty()) fields.push_back("");
  return fields;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    line += (i > 0 ? "," : "") + fields[i];
  }
  return line;
}

// One random mutation of `s`: flip a bit, truncate, duplicate a span, or
// insert a random byte.
std::string MutateBytes(std::string s, std::mt19937_64* rng) {
  auto pick = [&](size_t n) {
    return n == 0 ? size_t{0}
                  : static_cast<size_t>((*rng)() % static_cast<uint64_t>(n));
  };
  switch ((*rng)() % 4) {
    case 0:
      if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:
      s.resize(pick(s.size() + 1));
      break;
    case 2: {
      const size_t at = pick(s.size() + 1);
      const size_t len = pick(s.size() - at + 1);
      s.insert(at, s.substr(at, len));
      break;
    }
    default:
      s.insert(pick(s.size() + 1), 1, static_cast<char>((*rng)() & 0xff));
      break;
  }
  return s;
}

TEST_F(RequestMutationTest, MutatedTextLinesParseOrGetExactlyOneOutcome) {
  std::mt19937_64 rng(20240611);
  const std::vector<std::string> seeds = SeedLines();
  int64_t parse_errors = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string line = seeds[rng() % seeds.size()];
    if (rng() % 2 == 0) {
      // Numeric edge string in one field.
      std::vector<std::string> fields = SplitFields(line);
      fields[rng() % fields.size()] =
          kNumericEdges[rng() % (sizeof(kNumericEdges) /
                                 sizeof(kNumericEdges[0]))];
      line = JoinFields(fields);
    }
    for (uint64_t m = rng() % 3; m > 0; --m) line = MutateBytes(line, &rng);

    fr::Frame request;
    const Status parsed = serve::text::ParseRequest(line, &request);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << line;
      ++parse_errors;
      continue;
    }
    std::ostringstream wire;
    fr::WriteFrame(wire, request);  // a parsed line always fits a frame
    Dispatch(request);
  }
  EXPECT_GT(parse_errors, 100);
  EXPECT_GT(dispatched_, 1000);
  ExpectFullCoverage();
}

TEST_F(RequestMutationTest, MutatedFramesReadOrGetExactlyOneOutcome) {
  std::mt19937_64 rng(77);
  std::vector<fr::Frame> seeds;
  for (const std::string& line : SeedLines()) {
    fr::Frame frame;
    ASSERT_TRUE(serve::text::ParseRequest(line, &frame).ok()) << line;
    seeds.push_back(frame);
  }
  seeds.push_back(fr::MakeFlushFrame());
  fr::Frame unknown;
  unknown.type = 42;
  seeds.push_back(unknown);

  const int64_t ids[] = {0, 1, 2, -7, std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max()};
  int64_t read_errors = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    fr::Frame frame = seeds[rng() % seeds.size()];
    std::string wire_bytes;
    if (rng() % 2 == 0) {
      // Frame-level mutation under a valid CRC: the dispatcher sees a
      // hostile type, stream id or payload.
      switch (rng() % 3) {
        case 0:
          frame.type = static_cast<uint8_t>(rng() & 0xff);
          break;
        case 1:
          frame.stream_id = ids[rng() % (sizeof(ids) / sizeof(ids[0]))];
          break;
        default: {
          std::string payload(frame.payload.begin(), frame.payload.end());
          payload = MutateBytes(payload, &rng);
          frame.payload.assign(payload.begin(), payload.end());
          break;
        }
      }
      std::ostringstream wire;
      fr::WriteFrame(wire, frame);
      wire_bytes = wire.str();
    } else {
      // Byte-level mutation of the wire: mostly CRC, length and
      // truncation errors, the reader's half of the contract.
      std::ostringstream wire;
      fr::WriteFrame(wire, frame);
      fr::WriteFrame(wire, seeds[rng() % seeds.size()]);
      wire_bytes = wire.str();
      for (uint64_t m = 1 + rng() % 2; m > 0; --m) {
        wire_bytes = MutateBytes(wire_bytes, &rng);
      }
    }

    std::istringstream in(wire_bytes);
    fr::Frame request;
    for (bool eof = false;;) {
      const Status read = fr::ReadFrame(in, &request, &eof);
      if (!read.ok()) {
        EXPECT_TRUE(read.code() == StatusCode::kIOError ||
                    read.code() == StatusCode::kInvalidArgument);
        ++read_errors;
        break;
      }
      if (eof) break;
      Dispatch(request);
    }
  }
  EXPECT_GT(read_errors, 100);
  EXPECT_GT(dispatched_, 1000);
  ExpectFullCoverage();
}

}  // namespace
}  // namespace caee
