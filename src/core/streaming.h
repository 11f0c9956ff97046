// Online scoring (paper Sec. 4.2.7, Table 8): whenever a new observation
// arrives, form a window from it and its w-1 predecessors and return its
// outlier score. Training happens offline; this path only runs frozen
// forward passes.
//
// Two pieces live here:
//
//   - WindowState: the reusable per-stream ingestion state — a ring buffer
//     of the last w raw observations with width validation. It owns no
//     ensemble and runs no forward pass, which is what lets the serve layer
//     (src/serve/) keep one WindowState per tenant stream and batch the
//     forward passes across streams.
//   - StreamingScorer: WindowState + one ensemble = the sequential
//     single-stream scorer (score each observation as it arrives), the
//     reference the serving engine's scores are tested against.
//
// See docs/serving.md for the serving modes built on top of these.

#ifndef CAEE_CORE_STREAMING_H_
#define CAEE_CORE_STREAMING_H_

#include <optional>
#include <vector>

#include "core/ensemble.h"

namespace caee {
namespace core {

/// \brief Ring-buffered sliding-window state for one stream.
///
/// Holds the most recent `window` observations of a fixed-width stream in a
/// contiguous ring (no per-observation allocation once warm). Invariants:
/// every accepted observation has exactly dims() FINITE values (a width
/// mismatch or a NaN/inf value is rejected with InvalidArgument and leaves
/// the state untouched — a non-finite row would poison every window it
/// overlaps), and once warm() the buffer always holds exactly the last
/// window() observations in arrival order.
class WindowState {
 public:
  /// \brief `window` >= 1 observations of `dims` >= 1 values each.
  WindowState(int64_t window, int64_t dims);

  /// \brief Slab-backed ring primitives. The serve layer packs 10^5..10^6
  /// per-stream rings into one contiguous per-shard slab (one slot of
  /// window x dims floats per stream, cursor state held separately) instead
  /// of one heap vector per WindowState; these statics are the single
  /// implementation of the ring geometry both representations run on.
  /// `head` is the slot the NEXT observation lands in — and, once the ring
  /// is full, also the seam (the OLDEST buffered row).
  static void WriteRingRow(float* ring, int64_t dims, int64_t head,
                           const float* row);
  /// \brief Copy a FULL ring out as window x dims floats, oldest row first
  /// (at most two memcpys around the seam at `head`).
  static void CopyRingWindow(const float* ring, int64_t window, int64_t dims,
                             int64_t head, float* dst);

  /// \brief Append one observation. Returns InvalidArgument (and changes
  /// nothing — seen() is not advanced) when the width is not dims() or any
  /// value is non-finite; this holds for EVERY push, not just the first.
  Status Push(const std::vector<float>& observation);

  /// \brief True once window() observations are buffered (a full window is
  /// available from every Push onward).
  bool warm() const { return count_ == window_; }

  /// \brief Copy the current window into `dst` as window() x dims() floats,
  /// row-major, oldest observation first. Requires warm(). At most two
  /// memcpys (the ring seam).
  void CopyWindowTo(float* dst) const;

  /// \brief Copy the current window into a fresh (1, window, dims) tensor.
  /// Requires warm().
  Tensor MakeWindowTensor() const;

  /// \brief Observations accepted since construction or the last Reset.
  int64_t seen() const { return seen_; }
  int64_t window() const { return window_; }
  int64_t dims() const { return dims_; }

  /// \brief Forget all buffered observations (back to cold, seen() == 0).
  void Reset();

 private:
  int64_t window_;
  int64_t dims_;
  int64_t seen_ = 0;   // accepted pushes (rejected ones don't count)
  int64_t count_ = 0;  // buffered observations, saturates at window_
  int64_t head_ = 0;   // ring slot the NEXT observation lands in
  std::vector<float> ring_;  // window_ * dims_, slot t at [t*dims_, (t+1)*dims_)
};

/// \brief Single-stream online scorer: one WindowState fed through one
/// fitted ensemble (the Table 8 inference path). For many concurrent
/// streams, use serve::ServingEngine, which batches the forward passes
/// across streams and is bitwise-identical to running one StreamingScorer
/// per stream.
class StreamingScorer {
 public:
  /// \brief The ensemble must be fitted and outlive the scorer.
  explicit StreamingScorer(const CaeEnsemble* ensemble);

  /// \brief Feed one raw observation. Its size must equal the
  /// dimensionality the ensemble was fitted on (dims()); anything else is
  /// rejected with InvalidArgument before touching the buffer — on ANY
  /// push, and the rejected observation is not counted. Returns the
  /// outlier score of this observation once w observations have been seen;
  /// std::nullopt while warming up.
  StatusOr<std::optional<double>> Push(const std::vector<float>& observation);

  int64_t observations_seen() const { return state_.seen(); }
  /// \brief Expected observation size (the ensemble's fitted input dims).
  int64_t dims() const { return state_.dims(); }
  bool warm() const { return state_.warm(); }

  /// \brief Forget all buffered observations.
  void Reset() { state_.Reset(); }

 private:
  const CaeEnsemble* ensemble_;
  WindowState state_;
};

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_STREAMING_H_
