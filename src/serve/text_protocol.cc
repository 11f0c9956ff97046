#include "serve/text_protocol.h"

#include <optional>
#include <sstream>
#include <vector>

#include "core/threshold.h"

namespace caee {
namespace serve {
namespace text {

namespace fr = framing;

namespace {

const char kNotARequest[] =
    "not a request: expected `open,<id>[,static|spot]`, `close,<id>`, "
    "`<id>,v1,v2,...`, `reload,<path>` or `health`";

// A request that cannot fit one frame is rejected before it is built:
// framing::WriteFrame would abort on it.
Status CheckFits(size_t payload_bytes, const std::string& what) {
  if (payload_bytes <= fr::kMaxPayloadBytes) return Status::OK();
  return Status::InvalidArgument(
      what + " does not fit one frame (" + std::to_string(payload_bytes) +
      "-byte payload, bound " + std::to_string(fr::kMaxPayloadBytes) + ")");
}

// A whole-string integer: trailing garbage or an out-of-range value fails.
bool ParseId(const std::string& text, int64_t* id) {
  try {
    size_t consumed = 0;
    *id = std::stoll(text, &consumed);
    return consumed == text.size();
  } catch (...) {
    return false;
  }
}

// `v1,v2,...`: every cell one whole float ("1.2.3", "1e39" and "" fail).
bool ParseValues(const std::string& text, std::vector<float>* out) {
  out->clear();
  std::stringstream ss(text);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    try {
      size_t consumed = 0;
      const float value = std::stof(cell, &consumed);
      if (consumed != cell.size()) return false;
      out->push_back(value);
    } catch (...) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status ParseRequest(const std::string& line, fr::Frame* request) {
  if (line.rfind("reload,", 0) == 0) {
    const std::string path = line.substr(7);
    CAEE_RETURN_NOT_OK(CheckFits(sizeof(uint32_t) + path.size(),
                                 "reload path"));
    *request = fr::MakeReloadFrame(path);
    return Status::OK();
  }
  if (line == "health") {
    *request = fr::MakeHealthFrame();
    return Status::OK();
  }
  const size_t comma = line.find(',');
  if (comma == std::string::npos) return Status::InvalidArgument(kNotARequest);
  const std::string head = line.substr(0, comma);
  const std::string rest = line.substr(comma + 1);
  int64_t id = 0;
  if (head == "open" || head == "close") {
    // `open,3` / `open,3,spot` / `close,3`: a threshold-policy suffix is
    // legal only on open.
    const size_t second = rest.find(',');
    std::optional<core::ThresholdPolicy> policy;
    if (second != std::string::npos) {
      auto parsed = core::ParseThresholdPolicy(rest.substr(second + 1));
      if (head != "open" || !parsed.ok()) {
        return Status::InvalidArgument(kNotARequest);
      }
      policy = parsed.value();
    }
    if (!ParseId(rest.substr(0, second), &id)) {
      return Status::InvalidArgument(kNotARequest);
    }
    if (head == "close") {
      *request = fr::MakeCloseFrame(id);
    } else {
      *request = policy.has_value() ? fr::MakeOpenFrame(id, *policy)
                                    : fr::MakeOpenFrame(id);
    }
    return Status::OK();
  }
  if (!ParseId(head, &id)) return Status::InvalidArgument(kNotARequest);
  return ParseObserve(rest, id, request);
}

Status ParseObserve(const std::string& values, int64_t stream_id,
                    fr::Frame* request) {
  std::vector<float> observation;
  if (!ParseValues(values, &observation)) {
    return Status::InvalidArgument("non-numeric observation");
  }
  CAEE_RETURN_NOT_OK(
      CheckFits(sizeof(uint32_t) + observation.size() * sizeof(float),
                "observation of " + std::to_string(observation.size()) +
                    " values"));
  *request = fr::MakeObserveFrame(stream_id, observation);
  return Status::OK();
}

void WriteScore(std::ostream& out, const StreamScore& score) {
  out << score.stream_id << "," << score.index << "," << score.score << ","
      << (score.flag ? 1 : 0) << "\n";
}

Status WriteResponse(const fr::Frame& response, std::ostream& out,
                     std::ostream& log) {
  switch (response.frame_type()) {
    case fr::FrameType::kScore: {
      StreamScore score;
      CAEE_RETURN_NOT_OK(fr::ParseScore(response, &score));
      WriteScore(out, score);
      return Status::OK();
    }
    case fr::FrameType::kOk:
      return Status::OK();  // acks print nothing
    case fr::FrameType::kBackpressure:
      log << "backpressure: stream " << response.stream_id
          << " rejected (shard pending pool full)\n";
      return Status::OK();
    case fr::FrameType::kError: {
      Status error;
      CAEE_RETURN_NOT_OK(fr::ParseError(response, &error));
      log << "server error for stream " << response.stream_id << ": "
          << error << "\n";
      return Status::OK();
    }
    case fr::FrameType::kHealthStatus: {
      fr::HealthStatus hs;
      CAEE_RETURN_NOT_OK(fr::ParseHealthStatus(response, &hs));
      if (!hs.enabled) {
        log << "health: monitoring off (serve with --health)\n";
        return Status::OK();
      }
      log << "health: generation " << hs.generation << ", " << hs.window
          << " recent scores, score-shift " << hs.score_shift
          << ", dispersion-ratio " << hs.dispersion_ratio
          << ", non-finite-rate " << hs.non_finite_rate << ", alert-rate "
          << hs.alert_rate << ", " << hs.canary_rejections
          << " canary rejection(s), " << hs.rollbacks << " rollback(s)\n";
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unexpected frame type " +
                                     std::to_string(response.type) +
                                     " in a response stream");
  }
}

}  // namespace text
}  // namespace serve
}  // namespace caee
