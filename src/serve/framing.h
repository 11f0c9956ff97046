// Length-prefixed, CRC-checked binary framing for the serving protocol.
//
// The CSV line protocol caee_serve speaks costs a text parse per
// observation and cannot express backpressure; at 10^5-10^6 streams the
// wire format matters. This is the normative implementation of the frame
// layout specified in docs/protocol.md (the doc is the spec; this header
// mirrors it):
//
//   u32  length     bytes AFTER this field (header rest + payload + crc)
//   u8   version    kFramingVersion; readers accept exactly their own
//   u8   type       FrameType (unknown values survive ReadFrame so a
//                   server can answer kError instead of desyncing)
//   u16  reserved   must be zero
//   u64  stream_id  the tenant stream the frame addresses (0 when unused)
//   ...  payload    type-specific, length - 16 bytes
//   u32  crc        CRC-32 (common/crc32.h) over [version .. payload]
//
// Byte order is the host's, matching the artifact format (common/binio.h):
// the protocol connects a client and server of one deployment, not a
// cross-endian exchange. Truncation at ANY cut point, a flipped bit
// anywhere under the CRC, a bad version/reserved field, or an oversized
// length prefix all surface as a descriptive Status before any payload is
// interpreted (tests/framing_test.cc sweeps every one of them).
//
// Request frames (client -> server): kOpen, kClose, kObserve, kFlush,
// kReload, kHealth.
// Response frames (server -> client): kScore, kOk, kError, kBackpressure,
// kHealthStatus.
// kBackpressure is the admission-control signal — the addressed shard's
// pending pool is full, nothing was consumed, retry the SAME observation
// after draining (serve/shard.h).

#ifndef CAEE_SERVE_FRAMING_H_
#define CAEE_SERVE_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/threshold.h"
#include "serve/shard.h"

namespace caee {
namespace serve {
namespace framing {

/// \brief Version byte of the frame layout AND every payload encoding.
/// Evolution policy mirrors the artifact format (docs/persistence.md):
/// any change to either bumps it, and readers accept exactly their own
/// version — client and server of one deployment upgrade together.
inline constexpr uint8_t kFramingVersion = 1;

/// \brief Sanity bound on the length prefix — a corrupt frame must not
/// turn into a gigabyte allocation. Generous: the largest legitimate
/// payload (kObserve) is 4 + 4 * dims bytes.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// \brief Largest payload a frame can carry: kMaxFrameBytes less the 12
/// header bytes and 4 CRC bytes the length prefix also counts. Encoders
/// of untrusted input (serve/text_protocol.h) check against it before
/// building a frame.
inline constexpr size_t kMaxPayloadBytes = kMaxFrameBytes - 16;

enum class FrameType : uint8_t {
  // Requests.
  kOpen = 1,      // open a session; empty payload = the server's default
                  // threshold policy, or 1 byte: 1 = static, 2 = spot
  kClose = 2,     // close a session (owning shard drains); empty payload
  kObserve = 3,   // one observation: u32 count, count x f32
  kFlush = 4,     // flush every shard now; stream_id 0; empty payload
  kReload = 5,    // admin: hot-swap the artifact at the payload path
                  // (u32 len, len path bytes); stream_id 0; answered kOk
                  // on swap, kError (old generation kept) on rejection.
                  // A new TYPE, not a version bump — unknown types pass
                  // the framing layer by design (docs/protocol.md).
  kHealth = 6,    // admin: report model health (docs/operations.md);
                  // stream_id 0; empty payload; answered kHealthStatus.
                  // Rode in under the same new-TYPE evolution rule as
                  // kReload — no framing version bump.
  // Responses.
  kScore = 16,         // u64 index, f64 score, u8 flag
  kOk = 17,            // open/close/reload acknowledged; empty payload
  kError = 18,         // u16 StatusCode, u32 len, len message bytes
  kBackpressure = 19,  // shard pending pool full; retry; empty payload
  kHealthStatus = 20,  // u8 enabled, u64 generation, u64 window,
                       // f64 score_shift, f64 dispersion_ratio,
                       // f64 non_finite_rate, f64 alert_rate,
                       // u64 rollbacks, u64 canary_rejections
};

/// \brief One decoded frame. `type` stays a raw byte so unknown types can
/// be reported as protocol errors rather than UB-adjacent enum values.
struct Frame {
  uint8_t version = kFramingVersion;
  uint8_t type = 0;
  int64_t stream_id = 0;
  std::vector<uint8_t> payload;

  FrameType frame_type() const { return static_cast<FrameType>(type); }
};

/// \brief Serialize `frame` (computes length and CRC). The frame's payload
/// must fit kMaxFrameBytes (CHECKed — encoders below always do).
void WriteFrame(std::ostream& out, const Frame& frame);

/// \brief Read one frame. On clean end-of-stream (EOF before the first
/// length byte) sets *eof = true and returns OK with *frame untouched.
/// Returns IOError for truncation mid-frame, a CRC mismatch, or an
/// oversized length; InvalidArgument for a version or reserved-field
/// mismatch. An unknown TYPE is not an error here — the caller decides
/// (a server answers kError and keeps the stream alive).
Status ReadFrame(std::istream& in, Frame* frame, bool* eof);

// Request encoders.
Frame MakeOpenFrame(int64_t stream_id);
/// \brief Open with an explicit threshold policy (1-byte payload). The
/// no-policy form writes an EMPTY payload — byte-identical to what
/// pre-policy clients sent, which is why this rode in without a framing
/// version bump (docs/protocol.md "Version and evolution policy").
Frame MakeOpenFrame(int64_t stream_id, core::ThresholdPolicy policy);
Frame MakeCloseFrame(int64_t stream_id);
Frame MakeObserveFrame(int64_t stream_id, const std::vector<float>& values);
Frame MakeFlushFrame();
/// \brief Admin hot-swap request: serve from the artifact at `path`
/// (docs/operations.md). The payload (4 + path bytes) must fit
/// kMaxPayloadBytes (CHECKed).
Frame MakeReloadFrame(const std::string& path);
/// \brief Admin model-health report request (docs/operations.md).
Frame MakeHealthFrame();

/// \brief The decoded kHealthStatus payload: the engine's model-health
/// gauges and lifecycle counters at the moment the kHealth request was
/// served (EngineStats field semantics; serve/shard.h). `enabled` is
/// false when the server runs without --health — the gauges are zero
/// then, and the frame says so rather than erroring, so a generic
/// monitoring client needs no mode flag.
struct HealthStatus {
  bool enabled = false;
  int64_t generation = 0;
  int64_t window = 0;            // scores behind the gauges
  double score_shift = 0.0;
  double dispersion_ratio = 0.0;
  double non_finite_rate = 0.0;
  double alert_rate = 0.0;
  int64_t rollbacks = 0;
  int64_t canary_rejections = 0;
};

// Response encoders.
Frame MakeScoreFrame(const StreamScore& score);
Frame MakeOkFrame(int64_t stream_id);
Frame MakeErrorFrame(int64_t stream_id, const Status& status);
Frame MakeBackpressureFrame(int64_t stream_id);
Frame MakeHealthStatusFrame(const HealthStatus& status);

// Payload decoders. Each validates the frame's type and exact payload
// size/contents and returns InvalidArgument on mismatch.
/// \brief Decode an open frame's policy selector: nullopt for the legacy
/// empty payload (use the server default), the policy for a valid 1-byte
/// payload, InvalidArgument for anything else.
Status ParseOpenPolicy(const Frame& frame,
                       std::optional<core::ThresholdPolicy>* policy);
Status ParseObserve(const Frame& frame, std::vector<float>* values);
Status ParseReload(const Frame& frame, std::string* path);
Status ParseScore(const Frame& frame, StreamScore* score);
Status ParseError(const Frame& frame, Status* error);
Status ParseHealthStatus(const Frame& frame, HealthStatus* status);

}  // namespace framing
}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_FRAMING_H_
