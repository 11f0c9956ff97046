// The text line protocol as a codec over request and response frames.
//
// ParseRequest turns a multi-stream line, and ParseObserve a single-stream
// one, into the request frame the binary protocol carries, for
// serve::Dispatcher to serve; WriteResponse renders what comes back.
// `caee_serve --encode-frames` is ParseRequest + framing::WriteFrame and
// `--decode-frames` framing::ReadFrame + WriteResponse, so `encode | serve
// --binary | decode` prints exactly what the text server prints.
//
// Request lines:
//
//   open,<id>[,static|spot]   -> kOpen; the optional field picks the
//                                session's threshold policy
//   close,<id>                -> kClose
//   <id>,v1,v2,...            -> kObserve, one observation
//   reload,<path>             -> kReload, the admin hot-swap
//   health                    -> kHealth, the admin health report
//
// Ids and values are parsed whole (std::stoll / std::stof): trailing
// garbage, an out-of-range number or an empty value rejects the line. A
// line whose request cannot fit one frame (framing::kMaxFrameBytes) is
// rejected too, so no line can abort the encoder.

#ifndef CAEE_SERVE_TEXT_PROTOCOL_H_
#define CAEE_SERVE_TEXT_PROTOCOL_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/status.h"
#include "serve/framing.h"
#include "serve/shard.h"

namespace caee {
namespace serve {
namespace text {

/// \brief Parse one multi-stream request line into *request.
/// InvalidArgument for a line that is no request, or whose request does
/// not fit one frame; the caller prefixes the line number.
Status ParseRequest(const std::string& line, framing::Frame* request);

/// \brief Parse `v1,v2,...` into an observe request for `stream_id` (the
/// single-stream codec passes 0). Same errors as ParseRequest.
Status ParseObserve(const std::string& values, int64_t stream_id,
                    framing::Frame* request);

/// \brief One `stream,index,score,flag` output line, at `out`'s precision
/// (caee_serve sets max_digits10, so scores print round-trippable).
void WriteScore(std::ostream& out, const StreamScore& score);

/// \brief Render one response frame: a score as a WriteScore line on
/// `out`; a health status, an error or a backpressure frame as one
/// operator line on `log`; an ok as nothing. InvalidArgument for a
/// malformed payload or a frame type that is not a response.
Status WriteResponse(const framing::Frame& response, std::ostream& out,
                     std::ostream& log);

}  // namespace text
}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_TEXT_PROTOCOL_H_
