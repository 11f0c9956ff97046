#include "serve/framing.h"

#include <cstring>

#include "common/binio.h"
#include "common/crc32.h"

namespace caee {
namespace serve {
namespace framing {

namespace {

// Bytes between the length prefix and the payload: version, type,
// reserved, stream_id.
constexpr size_t kHeaderRest = 1 + 1 + 2 + 8;
constexpr size_t kCrcBytes = 4;
static_assert(kMaxPayloadBytes + kHeaderRest + kCrcBytes == kMaxFrameBytes,
              "kMaxPayloadBytes must match the frame layout");

void AppendPod(std::vector<uint8_t>* buf, const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  buf->insert(buf->end(), bytes, bytes + size);
}

Frame MakeFrame(FrameType type, int64_t stream_id) {
  Frame frame;
  frame.type = static_cast<uint8_t>(type);
  frame.stream_id = stream_id;
  return frame;
}

Status CheckTypeAndSize(const Frame& frame, FrameType want, size_t min_size,
                        const char* what) {
  if (frame.frame_type() != want) {
    return Status::InvalidArgument(std::string("frame is not a ") + what +
                                   " frame (type " +
                                   std::to_string(frame.type) + ")");
  }
  if (frame.payload.size() < min_size) {
    return Status::InvalidArgument(std::string(what) + " payload truncated (" +
                                   std::to_string(frame.payload.size()) +
                                   " bytes)");
  }
  return Status::OK();
}

}  // namespace

void WriteFrame(std::ostream& out, const Frame& frame) {
  // [version .. payload] as one contiguous buffer: the CRC input and the
  // bulk of the wire bytes.
  std::vector<uint8_t> body;
  body.reserve(kHeaderRest + frame.payload.size());
  body.push_back(frame.version);
  body.push_back(frame.type);
  const uint16_t reserved = 0;
  AppendPod(&body, &reserved, sizeof(reserved));
  AppendPod(&body, &frame.stream_id, sizeof(frame.stream_id));
  body.insert(body.end(), frame.payload.begin(), frame.payload.end());

  const uint32_t length = static_cast<uint32_t>(body.size() + kCrcBytes);
  CAEE_CHECK_MSG(length <= kMaxFrameBytes, "frame payload exceeds bound");
  const uint32_t crc = Crc32(body.data(), body.size());
  io::WritePod(out, length);
  io::WriteBytes(out, body.data(), body.size());
  io::WritePod(out, crc);
}

Status ReadFrame(std::istream& in, Frame* frame, bool* eof) {
  *eof = false;
  uint32_t length = 0;
  in.read(reinterpret_cast<char*>(&length), sizeof(length));
  if (in.gcount() == 0 && (in.eof() || !in.good())) {
    *eof = true;  // clean end of stream: no frame started
    return Status::OK();
  }
  if (in.gcount() != static_cast<std::streamsize>(sizeof(length))) {
    return Status::IOError("truncated frame: length prefix cut short");
  }
  if (length < kHeaderRest + kCrcBytes) {
    return Status::IOError("corrupt frame: length " + std::to_string(length) +
                           " is shorter than a frame header");
  }
  if (length > kMaxFrameBytes) {
    return Status::IOError("corrupt frame: length " + std::to_string(length) +
                           " exceeds the " +
                           std::to_string(kMaxFrameBytes) + "-byte bound");
  }

  std::vector<uint8_t> body(length);
  CAEE_RETURN_NOT_OK(io::ReadBytes(in, body.data(), body.size()));
  const size_t crc_at = body.size() - kCrcBytes;
  uint32_t wire_crc = 0;
  std::memcpy(&wire_crc, body.data() + crc_at, kCrcBytes);
  const uint32_t crc = Crc32(body.data(), crc_at);
  if (crc != wire_crc) {
    return Status::IOError("frame CRC mismatch (corrupt or bit-flipped)");
  }

  frame->version = body[0];
  if (frame->version != kFramingVersion) {
    return Status::InvalidArgument(
        "frame version " + std::to_string(frame->version) +
        " but this build speaks exactly version " +
        std::to_string(kFramingVersion) + " (docs/protocol.md)");
  }
  frame->type = body[1];
  uint16_t reserved = 0;
  std::memcpy(&reserved, body.data() + 2, sizeof(reserved));
  if (reserved != 0) {
    return Status::InvalidArgument("frame reserved field is not zero");
  }
  std::memcpy(&frame->stream_id, body.data() + 4, sizeof(frame->stream_id));
  frame->payload.assign(body.begin() + kHeaderRest, body.begin() + crc_at);
  return Status::OK();
}

namespace {

// Wire codes of the open frame's optional policy byte. Distinct from the
// ThresholdPolicy enum values on purpose: the wire encoding is frozen by
// docs/protocol.md, the C++ enum is free to change.
constexpr uint8_t kWirePolicyStatic = 1;
constexpr uint8_t kWirePolicySpot = 2;

}  // namespace

Frame MakeOpenFrame(int64_t stream_id) {
  return MakeFrame(FrameType::kOpen, stream_id);
}

Frame MakeOpenFrame(int64_t stream_id, core::ThresholdPolicy policy) {
  Frame frame = MakeFrame(FrameType::kOpen, stream_id);
  frame.payload.push_back(policy == core::ThresholdPolicy::kSpot
                              ? kWirePolicySpot
                              : kWirePolicyStatic);
  return frame;
}

Frame MakeCloseFrame(int64_t stream_id) {
  return MakeFrame(FrameType::kClose, stream_id);
}

Frame MakeObserveFrame(int64_t stream_id, const std::vector<float>& values) {
  Frame frame = MakeFrame(FrameType::kObserve, stream_id);
  const uint32_t count = static_cast<uint32_t>(values.size());
  frame.payload.reserve(sizeof(count) + values.size() * sizeof(float));
  AppendPod(&frame.payload, &count, sizeof(count));
  AppendPod(&frame.payload, values.data(), values.size() * sizeof(float));
  return frame;
}

Frame MakeFlushFrame() { return MakeFrame(FrameType::kFlush, 0); }

Frame MakeReloadFrame(const std::string& path) {
  // A path that cannot fit is a caller bug, not a tenant error: encoders
  // of operator input reject it first (serve/text_protocol.h).
  const uint32_t len = static_cast<uint32_t>(path.size());
  CAEE_CHECK_MSG(sizeof(len) + path.size() <= kMaxPayloadBytes,
                 "reload path exceeds the frame bound");
  Frame frame = MakeFrame(FrameType::kReload, 0);
  frame.payload.reserve(sizeof(len) + path.size());
  AppendPod(&frame.payload, &len, sizeof(len));
  if (!path.empty()) AppendPod(&frame.payload, path.data(), path.size());
  return frame;
}

Frame MakeHealthFrame() { return MakeFrame(FrameType::kHealth, 0); }

Frame MakeScoreFrame(const StreamScore& score) {
  Frame frame = MakeFrame(FrameType::kScore, score.stream_id);
  const uint64_t index = static_cast<uint64_t>(score.index);
  const uint8_t flag = score.flag ? 1 : 0;
  frame.payload.reserve(sizeof(index) + sizeof(score.score) + sizeof(flag));
  AppendPod(&frame.payload, &index, sizeof(index));
  AppendPod(&frame.payload, &score.score, sizeof(score.score));
  AppendPod(&frame.payload, &flag, sizeof(flag));
  return frame;
}

Frame MakeOkFrame(int64_t stream_id) {
  return MakeFrame(FrameType::kOk, stream_id);
}

Frame MakeErrorFrame(int64_t stream_id, const Status& status) {
  Frame frame = MakeFrame(FrameType::kError, stream_id);
  const uint16_t code = static_cast<uint16_t>(status.code());
  // Clamp the message to the frame bound (an error message is advisory;
  // the code is the contract).
  std::string msg = status.message();
  if (msg.size() > 4096) msg.resize(4096);
  const uint32_t len = static_cast<uint32_t>(msg.size());
  frame.payload.reserve(sizeof(code) + sizeof(len) + msg.size());
  AppendPod(&frame.payload, &code, sizeof(code));
  AppendPod(&frame.payload, &len, sizeof(len));
  AppendPod(&frame.payload, msg.data(), msg.size());
  return frame;
}

Frame MakeBackpressureFrame(int64_t stream_id) {
  return MakeFrame(FrameType::kBackpressure, stream_id);
}

namespace {

// kHealthStatus payload: u8 enabled + eight 8-byte fields, in the order
// frozen by docs/protocol.md.
constexpr size_t kHealthStatusBytes = 1 + 8 * 8;

}  // namespace

Frame MakeHealthStatusFrame(const HealthStatus& status) {
  Frame frame = MakeFrame(FrameType::kHealthStatus, 0);
  frame.payload.reserve(kHealthStatusBytes);
  frame.payload.push_back(status.enabled ? 1 : 0);
  const uint64_t generation = static_cast<uint64_t>(status.generation);
  const uint64_t window = static_cast<uint64_t>(status.window);
  const uint64_t rollbacks = static_cast<uint64_t>(status.rollbacks);
  const uint64_t rejections =
      static_cast<uint64_t>(status.canary_rejections);
  AppendPod(&frame.payload, &generation, sizeof(generation));
  AppendPod(&frame.payload, &window, sizeof(window));
  AppendPod(&frame.payload, &status.score_shift,
            sizeof(status.score_shift));
  AppendPod(&frame.payload, &status.dispersion_ratio,
            sizeof(status.dispersion_ratio));
  AppendPod(&frame.payload, &status.non_finite_rate,
            sizeof(status.non_finite_rate));
  AppendPod(&frame.payload, &status.alert_rate, sizeof(status.alert_rate));
  AppendPod(&frame.payload, &rollbacks, sizeof(rollbacks));
  AppendPod(&frame.payload, &rejections, sizeof(rejections));
  return frame;
}

Status ParseOpenPolicy(const Frame& frame,
                       std::optional<core::ThresholdPolicy>* policy) {
  CAEE_RETURN_NOT_OK(CheckTypeAndSize(frame, FrameType::kOpen, 0, "open"));
  policy->reset();
  if (frame.payload.empty()) return Status::OK();
  if (frame.payload.size() != 1) {
    return Status::InvalidArgument(
        "open payload is " + std::to_string(frame.payload.size()) +
        " bytes; expected empty (server default) or 1 policy byte");
  }
  switch (frame.payload[0]) {
    case kWirePolicyStatic:
      *policy = core::ThresholdPolicy::kStatic;
      return Status::OK();
    case kWirePolicySpot:
      *policy = core::ThresholdPolicy::kSpot;
      return Status::OK();
    default:
      return Status::InvalidArgument(
          "unknown open policy byte " + std::to_string(frame.payload[0]) +
          " (expected 1 = static, 2 = spot)");
  }
}

Status ParseObserve(const Frame& frame, std::vector<float>* values) {
  CAEE_RETURN_NOT_OK(
      CheckTypeAndSize(frame, FrameType::kObserve, sizeof(uint32_t),
                       "observe"));
  uint32_t count = 0;
  std::memcpy(&count, frame.payload.data(), sizeof(count));
  const size_t want = sizeof(count) + static_cast<size_t>(count) * 4;
  if (frame.payload.size() != want) {
    return Status::InvalidArgument(
        "observe payload declares " + std::to_string(count) +
        " values but carries " +
        std::to_string(frame.payload.size() - sizeof(count)) + " bytes");
  }
  values->resize(count);
  std::memcpy(values->data(), frame.payload.data() + sizeof(count),
              static_cast<size_t>(count) * sizeof(float));
  return Status::OK();
}

Status ParseReload(const Frame& frame, std::string* path) {
  CAEE_RETURN_NOT_OK(
      CheckTypeAndSize(frame, FrameType::kReload, sizeof(uint32_t),
                       "reload"));
  uint32_t len = 0;
  std::memcpy(&len, frame.payload.data(), sizeof(len));
  if (frame.payload.size() != sizeof(len) + len) {
    return Status::InvalidArgument(
        "reload payload declares a " + std::to_string(len) +
        "-byte path but carries " +
        std::to_string(frame.payload.size() - sizeof(len)) + " bytes");
  }
  if (len == 0) {
    return Status::InvalidArgument("reload path is empty");
  }
  path->assign(
      reinterpret_cast<const char*>(frame.payload.data()) + sizeof(len), len);
  return Status::OK();
}

Status ParseScore(const Frame& frame, StreamScore* score) {
  constexpr size_t kScoreBytes = 8 + 8 + 1;
  CAEE_RETURN_NOT_OK(
      CheckTypeAndSize(frame, FrameType::kScore, kScoreBytes, "score"));
  if (frame.payload.size() != kScoreBytes) {
    return Status::InvalidArgument("score payload has trailing bytes");
  }
  uint64_t index = 0;
  std::memcpy(&index, frame.payload.data(), sizeof(index));
  score->stream_id = frame.stream_id;
  score->index = static_cast<int64_t>(index);
  std::memcpy(&score->score, frame.payload.data() + 8, sizeof(score->score));
  score->flag = frame.payload[16] != 0;
  return Status::OK();
}

Status ParseHealthStatus(const Frame& frame, HealthStatus* status) {
  CAEE_RETURN_NOT_OK(CheckTypeAndSize(frame, FrameType::kHealthStatus,
                                      kHealthStatusBytes, "health-status"));
  if (frame.payload.size() != kHealthStatusBytes) {
    return Status::InvalidArgument("health-status payload has trailing bytes");
  }
  const uint8_t* p = frame.payload.data();
  status->enabled = p[0] != 0;
  uint64_t generation = 0, window = 0, rollbacks = 0, rejections = 0;
  std::memcpy(&generation, p + 1, sizeof(generation));
  std::memcpy(&window, p + 9, sizeof(window));
  std::memcpy(&status->score_shift, p + 17, sizeof(double));
  std::memcpy(&status->dispersion_ratio, p + 25, sizeof(double));
  std::memcpy(&status->non_finite_rate, p + 33, sizeof(double));
  std::memcpy(&status->alert_rate, p + 41, sizeof(double));
  std::memcpy(&rollbacks, p + 49, sizeof(rollbacks));
  std::memcpy(&rejections, p + 57, sizeof(rejections));
  status->generation = static_cast<int64_t>(generation);
  status->window = static_cast<int64_t>(window);
  status->rollbacks = static_cast<int64_t>(rollbacks);
  status->canary_rejections = static_cast<int64_t>(rejections);
  return Status::OK();
}

Status ParseError(const Frame& frame, Status* error) {
  constexpr size_t kFixed = sizeof(uint16_t) + sizeof(uint32_t);
  CAEE_RETURN_NOT_OK(
      CheckTypeAndSize(frame, FrameType::kError, kFixed, "error"));
  uint16_t code = 0;
  std::memcpy(&code, frame.payload.data(), sizeof(code));
  uint32_t len = 0;
  std::memcpy(&len, frame.payload.data() + sizeof(code), sizeof(len));
  if (frame.payload.size() != kFixed + len) {
    return Status::InvalidArgument("error payload length mismatch");
  }
  std::string msg(reinterpret_cast<const char*>(frame.payload.data()) + kFixed,
                  len);
  *error = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

}  // namespace framing
}  // namespace serve
}  // namespace caee
