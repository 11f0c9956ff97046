#include "serve/dispatcher.h"

#include <optional>

namespace caee {
namespace serve {

namespace fr = framing;

namespace {

// The kHealthStatus payload: the engine's gauges and lifecycle counters
// now, from the same EngineStats the end-of-run summary prints
// (aggregation contract in serve/shard.h).
fr::HealthStatus HealthOf(const ServingEngine& engine) {
  const EngineStats s = engine.Stats();
  return fr::HealthStatus{engine.config().health.enabled, s.generation,
                          s.health_window, s.score_shift, s.dispersion_ratio,
                          s.non_finite_rate, s.alert_rate, s.rollbacks,
                          s.canary_rejections};
}

}  // namespace

void Dispatcher::Dispatch(const fr::Frame& request, ResponseSink* sink) {
  const int64_t id = request.stream_id;
  scores_.clear();
  Status status;
  switch (request.frame_type()) {
    case fr::FrameType::kOpen: {
      // An empty payload opens with the server's default policy; a 1-byte
      // payload selects one per session (docs/protocol.md).
      std::optional<core::ThresholdPolicy> policy;
      status = fr::ParseOpenPolicy(request, &policy);
      if (status.ok()) {
        status = policy.has_value() ? engine_->OpenStream(id, *policy)
                                    : engine_->OpenStream(id);
      }
      break;
    }
    case fr::FrameType::kClose:
      status = engine_->CloseStream(id, &scores_);
      if (!scores_.empty()) sink->Scores(scores_);
      break;
    case fr::FrameType::kObserve:
      status = fr::ParseObserve(request, &observation_);
      if (status.ok()) status = engine_->Push(id, observation_, &scores_);
      if (status.ok()) {
        if (!scores_.empty()) sink->Scores(scores_);
        return;
      }
      if (status.code() == StatusCode::kResourceExhausted) {
        sink->Reply(fr::MakeBackpressureFrame(id), status);
        return;
      }
      break;
    case fr::FrameType::kFlush:
      status = engine_->Flush(&scores_);
      if (!scores_.empty()) sink->Scores(scores_);
      if (status.ok()) return;
      sink->Reply(fr::MakeErrorFrame(0, status), status);
      return;
    case fr::FrameType::kReload: {
      // A rejected candidate is an error reply: the engine keeps serving
      // the old generation.
      std::string path;
      status = fr::ParseReload(request, &path);
      if (status.ok()) {
        auto swapped = engine_->ReloadArtifact(path);
        if (swapped.ok()) {
          sink->Reloaded(swapped.value(), path);
        } else {
          status = swapped.status();
        }
      }
      break;
    }
    case fr::FrameType::kHealth:
      sink->Reply(fr::MakeHealthStatusFrame(HealthOf(*engine_)), status);
      return;
    default:
      status = Status::InvalidArgument("unknown frame type " +
                                       std::to_string(request.type));
      break;
  }
  sink->Reply(
      status.ok() ? fr::MakeOkFrame(id) : fr::MakeErrorFrame(id, status),
      status);
}

}  // namespace serve
}  // namespace caee
