// One serving-engine shard: an independent session table, pending pool,
// staging buffers, and flush deadline behind its OWN mutex.
//
// serve::ServingEngine partitions its streams across S EngineShards by a
// hash of the stream id, so a push on one shard never contends with a push
// or flush on another — the property that lets one process front 10^5-10^6
// mostly-idle tenant streams. The shard is where the per-stream memory
// budget is enforced (docs/capacity.md):
//
//   - Session state is PACKED: instead of one heap-allocated
//     core::WindowState (ring vector + 40 bytes of cursors) behind a
//     std::map node per stream, a shard keeps
//       * one contiguous float slab holding every stream's w x dims ring
//         (slot s at [s * w * dims, (s+1) * w * dims)),
//       * a dense vector of 16-byte PackedSession cursor records
//         (seen / head / count — window and dims are shard-wide constants
//         taken from the ensemble, not stored per stream),
//       * an open-addressing StreamIndex mapping stream id -> slot
//         (~16 bytes per slot at <= 70% load; no per-entry heap nodes).
//     Slots of closed streams are recycled through a free list. The ring
//     geometry itself (seam copy, head advance) is shared with
//     core::WindowState via its static WriteRingRow / CopyRingWindow.
//     Per-session SPOT threshold state follows the same discipline: a
//     48-byte core::SpotTail cursor per slot plus one contiguous
//     peak-ring slab (peak_capacity doubles per slot), allocated only
//     when the engine carries SPOT init params (docs/thresholds.md,
//     docs/capacity.md).
//   - Admission control: ShardConfig::max_pending bounds the shard's
//     pending pool. A push that would enqueue a ready window past the bound
//     is rejected with ResourceExhausted BEFORE any state changes — the
//     observation is not consumed, the session cursor does not advance, and
//     retrying the same observation after a flush yields the same score.
//     The binary protocol maps this rejection to a backpressure frame
//     (docs/protocol.md).
//
// Determinism: a window's score depends only on the window's contents, so
// the shard count, the hash, and the per-shard batch composition cannot
// move a score by a bit (tests/serve_test.cc re-proves the contract at
// shard counts {1, 4, 16}). Within one shard, results come back in arrival
// order, exactly like the pre-shard engine.

#ifndef CAEE_SERVE_SHARD_H_
#define CAEE_SERVE_SHARD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/ensemble.h"
#include "core/spot.h"
#include "core/threshold.h"
#include "serve/generation.h"

namespace caee {
namespace serve {

/// \brief One scored observation: which stream, its index within that
/// stream, the outlier score, and the threshold verdict (false when a
/// kStatic session has no threshold; NON-FINITE SCORES ALWAYS FLAG under
/// either policy — docs/thresholds.md).
struct StreamScore {
  int64_t stream_id = 0;
  int64_t index = 0;
  double score = 0.0;
  bool flag = false;
  /// Id of the serve::Generation whose ensemble scored this window
  /// (docs/operations.md). Under a hot-swap every window is attributable
  /// to exactly one generation and its score is bitwise equal to a
  /// single-generation run of that artifact. Process-local bookkeeping —
  /// deliberately NOT part of the wire score frame or the text output.
  int64_t generation = 0;
};

/// \brief Monitoring counters the engine aggregates across its shards
/// (ServingEngine::Stats). Counters are cumulative since construction;
/// `drift` is the current value of the score-distribution drift statistic
/// (docs/thresholds.md): over a per-shard ring of the last kDriftWindow
/// scores, |rate(score > calibration t) - (1 - level)| — how far the live
/// exceed rate has moved from what the artifact's calibration promised.
/// Only meaningful when the engine carries SPOT init params (the
/// calibration summary IS the baseline); 0 otherwise.
struct EngineStats {
  int64_t scored_windows = 0;
  int64_t alerts = 0;              // flagged verdicts, either policy
  int64_t non_finite_scores = 0;   // NaN/inf scores (always flagged)
  int64_t drift_window = 0;        // scores in the drift ring (all shards)
  double drift = 0.0;              // max over shards; in [0, 1]
  // Model-health telemetry (ServeConfig::health; serve/health_monitor.h,
  // docs/operations.md). Zero while health monitoring is off. Aggregation
  // follows the drift precedent: `health_window` SUMS over shards, the
  // four gauges take the MAX over shards — one broken shard must be able
  // to trip the monitor even when the others still look fine, and a mean
  // would let healthy shards dilute it.
  int64_t health_window = 0;       // scores in the health rings
  double score_shift = 0.0;        // TV distance vs calibration histogram
  double dispersion_ratio = 0.0;   // live / reference mean member dispersion
  double non_finite_rate = 0.0;    // non-finite fraction of the ring
  double alert_rate = 0.0;         // flagged fraction of the ring
  // Model-lifecycle counters, filled by ServingEngine::Stats() (they are
  // engine-level, not per-shard; shard Stats() leaves them zero).
  int64_t generation = 0;          // id of the live generation
  int64_t reloads = 0;             // successful hot-swaps
  int64_t failed_reloads = 0;      // rejected candidates (old gen kept)
  int64_t canary_rejections = 0;   // subset rejected by shadow-scoring
  int64_t rollbacks = 0;           // automatic probation rollbacks
  // Per-signal HealthMonitor firings since construction, drift included
  // (engine-level, cumulative across generations; a rollback does not
  // reset them).
  int64_t score_shift_events = 0;
  int64_t dispersion_events = 0;
  int64_t non_finite_events = 0;
  int64_t alert_rate_events = 0;
  int64_t drift_events = 0;
};

/// \brief Scores per shard the drift statistic is computed over. Small
/// enough to react within a few batches, large enough that the exceed
/// rate at level 0.98 has ~5 expected hits when healthy.
inline constexpr uint32_t kDriftWindow = 256;

/// \brief Scores per shard the health gauges are computed over. Larger
/// than kDriftWindow: the live histogram spreads over core::kHealthBins
/// bins, and the TV distance needs enough mass per bin to settle.
inline constexpr uint32_t kHealthWindow = 512;

/// \brief Per-shard policy knobs (ServingEngine copies them out of its
/// ServeConfig, one copy per shard).
struct ShardConfig {
  /// Ready windows per batched forward pass; reaching it triggers an
  /// immediate flush of this shard's queue. Must be >= 1.
  int64_t max_batch = 8;
  /// Latency bound: FlushIfExpired scores the shard's queue once ITS oldest
  /// pending window has waited this long. <= 0 disables the deadline.
  int64_t flush_deadline_ms = 50;
  /// Admission control: upper bound on this shard's pending pool. A push
  /// that would enqueue past the bound is rejected with ResourceExhausted
  /// and consumes nothing. 0 = unbounded.
  int64_t max_pending = 0;
  /// Model-health instrumentation (ServeConfig::health.enabled): maintain
  /// the per-score health record ring and the canary window buffer.
  /// Requires the generation to carry a core::HealthRef (CHECKed — the
  /// engine validates that before shard construction).
  bool health = false;
  /// Raw windows this shard retains for canary shadow-scoring when health
  /// is on. Must be >= 1 when health is on.
  int64_t canary_capacity = 64;
};

/// \brief Open-addressing stream-id -> ring-slot index (linear probing,
/// power-of-two capacity, tombstone deletion). Exists because a
/// std::map/std::unordered_map node costs ~50-80 heap bytes per entry —
/// the single biggest per-idle-stream overhead after the ring itself
/// (docs/capacity.md). ~16 bytes per SLOT here, <= 70% load.
class StreamIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// \brief Slot mapped to `key`, or kNotFound.
  uint32_t Find(int64_t key) const;
  /// \brief Insert a NOT-present key (CHECKed — presence is the engine's
  /// open/close protocol to enforce).
  void Insert(int64_t key, uint32_t slot);
  /// \brief Erase a present key (CHECKed).
  void Erase(int64_t key);

  size_t size() const { return size_; }
  /// \brief Heap bytes behind the table (capacity, not occupancy).
  size_t MemoryBytes() const;

 private:
  struct Entry {
    int64_t key;
    uint32_t slot;
  };
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  void Rehash(size_t new_capacity);

  std::vector<Entry> entries_;
  std::vector<uint8_t> state_;  // kEmpty / kFull / kTombstone per slot
  size_t size_ = 0;             // kFull slots
  size_t used_ = 0;             // kFull + kTombstone slots
};

class EngineShard {
 public:
  /// \brief `gen` is the live Generation (serve/generation.h): a fitted
  /// ensemble, the calibrated threshold, and the SPOT init params when the
  /// deployment is SPOT-capable (without them opening a kSpot session
  /// fails). The shard holds its own reference — RCU-style, the engine
  /// swaps it via AdoptGeneration. `default_policy` is the policy sessions
  /// opened without an explicit one get.
  EngineShard(std::shared_ptr<const Generation> gen,
              const ShardConfig& config,
              core::ThresholdPolicy default_policy);

  /// \brief Hot-swap this shard onto a new generation. Taking the shard
  /// mutex IS the RCU grace period: any flush in flight finishes on the
  /// generation it started with before the swap lands, and every later
  /// flush scores through the new one. Session rings, SPOT tails, and
  /// pending windows all survive untouched — the ENGINE validated that the
  /// new generation's geometry (window, dims, SPOT capability and peak
  /// capacity) matches before calling this (CHECKed here: a mismatch past
  /// validation is a programming error). The drift ring restarts: its
  /// baseline is the new generation's calibration.
  void AdoptGeneration(std::shared_ptr<const Generation> gen);

  /// \brief Test hook (tests/fault_injection_test.cc): nullptr in
  /// production. When set, armed score faults poison flush results.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // The five engine operations, scoped to this shard's streams and queue.
  // Semantics (including error codes) match the engine-level doc comments
  // in serving_engine.h; CloseStream drains THIS shard's queue only.
  Status OpenStream(int64_t stream_id, core::ThresholdPolicy policy);
  Status CloseStream(int64_t stream_id, std::vector<StreamScore>* out);
  Status Push(int64_t stream_id, const std::vector<float>& observation,
              std::vector<StreamScore>* out);
  Status Flush(std::vector<StreamScore>* out);
  Status FlushIfExpired(std::vector<StreamScore>* out);

  int64_t num_streams() const;
  int64_t pending_windows() const;
  /// \brief This shard's contribution to ServingEngine::Stats().
  EngineStats Stats() const;
  /// \brief Append this shard's retained canary windows (the newest
  /// canary_capacity raw w x dims snapshots it scored, order unspecified)
  /// to `out`; returns how many were appended. 0 when health is off. The
  /// engine gathers these across shards to shadow-score a reload candidate
  /// (docs/operations.md) — a brief per-shard lock each, never all shards
  /// at once.
  int64_t CopyCanaryWindows(std::vector<float>* out) const;
  /// \brief Bytes of heap owned by this shard: ring slab, session records,
  /// SPOT tail records + peak slab, index table, free list, pending pool,
  /// staging buffers (all counted at CAPACITY — the steady-state
  /// footprint, not the instantaneous one).
  size_t MemoryBytes() const;

 private:
  /// \brief Per-stream cursor record; the ring payload lives in rings_.
  /// window/dims are shard-wide constants, so 16 bytes covers a session.
  struct PackedSession {
    int64_t seen = 0;     // accepted observations (rejected ones excluded)
    uint32_t head = 0;    // ring slot the NEXT observation lands in
    uint32_t count = 0;   // buffered observations, saturates at window
  };

  struct PendingWindow {
    int64_t stream_id = 0;
    int64_t index = 0;  // observation index within the stream
    std::chrono::steady_clock::time_point enqueued_at;
    std::vector<float> values;  // w x dims snapshot, oldest row first
  };

  /// \brief Score and drain the whole pending queue (chunks of max_batch),
  /// appending results in arrival order. Requires mu_ held.
  Status FlushLocked(std::vector<StreamScore>* out);

  /// \brief Threshold verdict + stats/drift/health update for one scored
  /// window, applied in arrival order (the SPOT determinism contract hangs
  /// on this ordering). `dispersion` is the window's member dispersion
  /// (0 when health is off — it is only recorded then). Requires mu_ held.
  bool VerdictLocked(int64_t stream_id, double score, double dispersion);

  float* RingOf(uint32_t slot) {
    return rings_.data() + static_cast<size_t>(slot) * ring_stride_;
  }
  double* SpotPeaksOf(uint32_t slot) {
    return spot_peaks_.data() + static_cast<size_t>(slot) * spot_stride_;
  }

  // The live generation, swapped by AdoptGeneration under mu_. Scoring
  // reads gen_ directly (no per-flush refcount traffic — the mutex is the
  // grace period), so steady state stays zero-allocation.
  std::shared_ptr<const Generation> gen_;
  ShardConfig config_;
  core::ThresholdPolicy default_policy_;
  FaultInjector* fault_ = nullptr;  // test hook; null in production
  // Geometry is fixed at construction and validated invariant across
  // generations (the slabs below are sized by it).
  int64_t window_;
  int64_t dims_;
  size_t ring_stride_;  // window_ * dims_ floats per ring slot
  size_t spot_stride_;  // peak_capacity doubles per slot (0 without SPOT)

  mutable std::mutex mu_;
  StreamIndex index_;
  std::vector<PackedSession> sessions_;  // slot-indexed, parallel to rings_
  std::vector<float> rings_;             // session ring slab
  std::vector<uint32_t> free_slots_;     // slots of closed streams
  // Per-session threshold policy + SPOT state, slot-parallel to sessions_.
  // The SPOT vectors stay empty on non-SPOT-capable shards, so a static
  // deployment pays one policy byte per stream and nothing else.
  std::vector<uint8_t> policies_;          // core::ThresholdPolicy per slot
  std::vector<core::SpotTail> spot_tails_;
  std::vector<double> spot_peaks_;         // peak-ring slab

  // Stats + drift ring (docs/thresholds.md), all guarded by mu_.
  EngineStats stats_;
  std::vector<uint8_t> drift_ring_;  // exceed bit per recent score
  uint32_t drift_head_ = 0;
  uint32_t drift_count_ = 0;
  uint32_t drift_exceed_ = 0;        // set bits in the ring

  // Model-health record ring (docs/operations.md), guarded by mu_ and
  // allocated once at construction when ShardConfig::health is on. Per
  // scored window: its histogram bin (kNonFiniteBin sentinel for
  // non-finite scores), its alert bit, and its member dispersion —
  // mirrored into incremental aggregates so Stats() is O(bins), and sized
  // up front so health updates never allocate (alloc_count_test).
  std::vector<uint8_t> health_bin_ring_;
  std::vector<uint8_t> health_alert_ring_;
  std::vector<double> health_disp_ring_;
  std::vector<int64_t> health_bin_counts_;  // finite scores per bin
  uint32_t health_head_ = 0;
  uint32_t health_count_ = 0;
  uint32_t health_alerts_ = 0;       // set alert bits in the ring
  uint32_t health_nonfinite_ = 0;    // sentinel bins in the ring
  double health_disp_sum_ = 0.0;     // sum of FINITE dispersions
  uint32_t health_disp_count_ = 0;   // finite dispersions in the ring
  // Canary buffer: the newest canary_capacity raw windows this shard
  // scored, retained for shadow-scoring reload candidates. Raw INPUTS,
  // not scores — they stay valid across generation swaps.
  std::vector<float> canary_ring_;   // canary_capacity x w x dims floats
  uint32_t canary_head_ = 0;
  uint32_t canary_count_ = 0;

  // Pending queue as a reuse pool: the first pending_count_ entries of
  // pending_ are live, in arrival order; entries past that keep their
  // snapshot capacity and are recycled by the next push. Together with the
  // grow-only staging buffers and the ensemble's arena-backed
  // ScoreWindowsLastInto, steady-state scoring performs zero heap
  // allocations (tests/alloc_count_test.cc).
  std::vector<PendingWindow> pending_;
  size_t pending_count_ = 0;
  std::vector<float> batch_values_;   // max_batch x w x dims staging
  std::vector<double> batch_scores_;  // scores of one flushed chunk
  std::vector<double> batch_dispersions_;  // member dispersions, health only
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_SHARD_H_
