// The one request dispatcher behind every caee_serve wire codec.
//
// A codec — the binary framing of docs/protocol.md, or the text lines of
// serve/text_protocol.h — only reads requests as frames and writes their
// answers. What a request MEANS lives here, once: Dispatch takes one
// request frame, makes the one ServingEngine call it maps to, and hands
// the outcome to a sink in wire order, the scores the call produced
// first, then the request's reply:
//
//   open, close, reload   kOk, or kError carrying the engine's reason
//   observe               its scores alone; kBackpressure when the shard's
//                         pending pool is full (ResourceExhausted, nothing
//                         consumed); kError for any other rejection
//   flush                 its scores alone; kError (stream 0) when a
//                         flush fails
//   health                kHealthStatus, also with monitoring off
//   any other type        kError naming the type
//
// So every request gets exactly one reply, except an observe or flush that
// succeeds, which is answered by its scores alone. A network front end
// would plug in here as one more sink.

#ifndef CAEE_SERVE_DISPATCHER_H_
#define CAEE_SERVE_DISPATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"

namespace caee {
namespace serve {

/// \brief Where Dispatch delivers one request's outcome.
class ResponseSink {
 public:
  /// \brief The scores the request produced, in delivery order; never
  /// called with an empty batch. Comes before the request's reply.
  virtual void Scores(const std::vector<StreamScore>& scores) = 0;
  /// \brief The request's reply frame: kOk, kError, kBackpressure or
  /// kHealthStatus. `status` is the reason behind a kError or
  /// kBackpressure reply, and OK otherwise.
  virtual void Reply(const framing::Frame& reply, const Status& status) = 0;
  /// \brief A reload was accepted: `generation` now serves, loaded from
  /// `path`. Called just before that reload's kOk reply.
  virtual void Reloaded(int64_t /*generation*/, const std::string& /*path*/) {}

 protected:
  ~ResponseSink() = default;  // sinks are never deleted through this type
};

class Dispatcher {
 public:
  /// \brief The engine must outlive the dispatcher.
  explicit Dispatcher(ServingEngine* engine) : engine_(engine) {}

  /// \brief Serve one request (see the file comment for the reply each
  /// type gets). Tenant errors are replies, never a failed call: no frame
  /// can crash the dispatcher. One dispatcher serves one request loop; a
  /// deadline flusher may drive the same engine concurrently.
  void Dispatch(const framing::Frame& request, ResponseSink* sink);

 private:
  ServingEngine* engine_;
  // Reused across requests, so a warm loop dispatches without allocating
  // observation or score buffers.
  std::vector<float> observation_;
  std::vector<StreamScore> scores_;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_DISPATCHER_H_
