// Sharded multi-stream serving engine with cross-stream micro-batching.
//
// The single-stream online path (core::StreamingScorer) runs one frozen
// forward pass per arriving observation; PR 4's engine batched ready
// windows from many streams into one forward pass but kept ONE mutex, ONE
// session table, and ONE pending queue — a push had to wait for any
// in-flight flush, and the session table paid std::map node overhead per
// tenant. At the 10^5-10^6 mostly-idle-stream scale the serving layer
// itself became the bottleneck.
//
// ServingEngine is now a thin router over ServeConfig::num_shards
// independent EngineShards (serve/shard.h). Each stream id is assigned to
// one shard by a SplitMix64 hash (ShardOf), and each shard owns its own
// mutex, packed session store (slab-backed rings + open-addressing index),
// pending pool, staging buffers, and flush deadline. Pushes on one shard
// never contend with pushes or flushes on another; a full-batch flush runs
// inline on the triggering push and scores only that shard's queue.
//
// Batching policy (per shard): a push to a warm stream snapshots one ready
// window into the shard's pending queue. The queue is scored (flushed)
// when it reaches max_batch windows, when the shard's oldest pending
// window has waited flush_deadline_ms (FlushIfExpired), on explicit Flush
// (all shards, shard order), and before one of the SHARD's streams closes.
// ServeConfig::max_pending bounds each shard's queue: a push that would
// exceed it is rejected with ResourceExhausted and consumes NOTHING — the
// session cursor does not advance and the same observation can be retried
// (the binary protocol's backpressure frame; docs/protocol.md).
//
// Determinism contract: a window's score depends only on the window's
// contents — never on batch size, batch composition, flush timing, thread
// count, or SHARD COUNT — and is bitwise identical to what a dedicated
// core::StreamingScorer on that stream would have produced. Enforced by
// tests/serve_test.cc across shard counts {1, 4, 16}; policy details in
// docs/serving.md and docs/numeric-contract.md.
//
// Thread safety: all public methods are safe to call concurrently. Locking
// is per shard; cross-shard aggregates (num_streams, pending_windows,
// Flush) take the shard locks one at a time, so they see a consistent
// per-shard — not globally atomic — snapshot. Scored results are handed
// back through out-parameters rather than a callback so callers choose
// their own delivery locking.

#ifndef CAEE_SERVE_SERVING_ENGINE_H_
#define CAEE_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "serve/generation.h"
#include "serve/health_monitor.h"
#include "serve/shard.h"

namespace caee {
namespace serve {

/// \brief Engine-wide knobs. Worker count is the ensemble's own
/// num_threads knob (core::CaeEnsemble::set_num_threads) — the engine adds
/// no parallelism of its own.
struct ServeConfig {
  /// Ready windows per batched forward pass, per shard; reaching it
  /// triggers an immediate flush of that shard. Must be >= 1.
  int64_t max_batch = 8;
  /// Latency bound: FlushIfExpired scores a shard's queue once its oldest
  /// pending window has waited this long. <= 0 disables the deadline.
  int64_t flush_deadline_ms = 50;
  /// Number of independent engine shards (stream id -> shard by hash).
  /// Must be >= 1. More shards = less lock contention and smaller
  /// per-flush queues; scores are bitwise identical at ANY shard count.
  int64_t num_shards = 1;
  /// Admission control: per-shard pending-pool bound. A push that would
  /// enqueue a ready window past it is rejected with ResourceExhausted and
  /// consumes nothing. 0 = unbounded.
  int64_t max_pending = 0;
  /// Threshold policy for sessions opened without an explicit one
  /// (docs/thresholds.md). kStatic keeps every verdict, golden constant,
  /// and benchmark checksum exactly as before; kSpot requires the engine
  /// to be constructed with SPOT init params.
  core::ThresholdPolicy threshold_policy = core::ThresholdPolicy::kStatic;
  /// Drift -> repair escalation (serve/health_monitor.h,
  /// docs/operations.md): PollHealth emits a kDrift event once the drift
  /// statistic exceeds this. <= 0 (the default) turns the drift signal off;
  /// it does not need health.enabled.
  double drift_threshold = 0.0;
  /// Hysteresis: the drift signal re-arms once drift falls below this.
  /// <= 0 means drift_threshold / 2.
  double drift_clear = 0.0;
  /// Unsupervised model-health validation, canary reloads, and automatic
  /// generation rollback (serve/health_monitor.h, docs/operations.md).
  /// health.enabled requires every generation — construction-time and every
  /// reload candidate — to carry a core::HealthRef (caee_train --health).
  HealthConfig health;
};

class ServingEngine {
 public:
  /// \brief The ensemble must be fitted and outlive the engine. `threshold`
  /// is the calibrated alert threshold from the artifact (kStatic flags
  /// stay false without one — except that non-finite scores always flag).
  /// `spot` carries the artifact's SPOT init params; without them kSpot
  /// sessions cannot be opened. Aborts on max_batch < 1, num_shards < 1,
  /// an unfitted ensemble, a kSpot default policy without init params, or
  /// init params that fail core::ValidateSpotInit — construction arguments
  /// are programmer input, not tenant input. `health` carries the
  /// artifact's model-health calibration reference; required (and
  /// validated) when config.health.enabled, ignored otherwise.
  ServingEngine(const core::CaeEnsemble* ensemble, const ServeConfig& config,
                std::optional<double> threshold = std::nullopt,
                std::optional<core::SpotInit> spot = std::nullopt,
                std::optional<core::HealthRef> health = std::nullopt);

  /// \brief Open a session on the stream's shard with the engine's default
  /// threshold policy. FailedPrecondition if `stream_id` is already open.
  /// Streams warm up independently: the first w-1 observations of a fresh
  /// session score nothing.
  Status OpenStream(int64_t stream_id);

  /// \brief Open a session with an explicit per-session threshold policy
  /// (the wire protocols' `open,<id>,spot` / policy byte). kSpot on an
  /// engine without SPOT init params is FailedPrecondition.
  Status OpenStream(int64_t stream_id, core::ThresholdPolicy policy);

  /// \brief Close a session. The OWNING SHARD's pending queue is flushed
  /// first so no enqueued window of this (or any co-sharded) stream is
  /// dropped; results land in *out. Other shards' queues are untouched.
  /// NotFound if the stream is not open. Reopening the same id later
  /// starts a fresh, cold session.
  Status CloseStream(int64_t stream_id, std::vector<StreamScore>* out);

  /// \brief Feed one observation to an open stream. If the stream is warm
  /// this enqueues one ready window on its shard; if that fills the shard's
  /// micro-batch, the batched pass runs inline and its scores (for ALL
  /// streams in that shard's batch) are appended to *out. NotFound for
  /// unknown streams, InvalidArgument for a width mismatch,
  /// ResourceExhausted when the shard's pending pool is full — in every
  /// rejection case NOTHING changes on ANY shard and the session stays
  /// usable.
  Status Push(int64_t stream_id, const std::vector<float>& observation,
              std::vector<StreamScore>* out);

  /// \brief Score every pending window on every shard now, regardless of
  /// batch occupancy (in chunks of max_batch, shards in index order). Call
  /// at end-of-input.
  Status Flush(std::vector<StreamScore>* out);

  /// \brief Per shard: flush only if the deadline has expired on that
  /// shard's oldest pending window (no-op when flush_deadline_ms <= 0 or
  /// nothing is pending). Drive this from a timer when input can stall
  /// mid-batch.
  Status FlushIfExpired(std::vector<StreamScore>* out);

  /// \brief Hot-swap the engine onto the artifact at `path` with zero
  /// downtime (docs/operations.md). The artifact is loaded with bounded
  /// retry-with-backoff for transient IO errors, validated against the
  /// live deployment (same window and input width; SPOT capability and
  /// peak capacity must match — per-stream slabs are sized by them), and
  /// adopted shard by shard: a flush in flight finishes on the generation
  /// it started with, every later flush scores through the new one, and
  /// no stream, session ring, SPOT tail, or pending window is dropped.
  /// Every scored window carries the id of exactly one generation and is
  /// bitwise equal to a single-generation run of that artifact.
  ///
  /// Canary phase (only with ServeConfig::health.enabled): before any
  /// shard adopts the candidate, the engine shadow-scores the retained
  /// ring of recent live windows with the candidate and judges the result
  /// against the CANDIDATE's own calibration reference — non-finite rate,
  /// score-distribution shift, member-dispersion ratio, each against the
  /// HealthConfig thresholds. A candidate that fails is rejected exactly
  /// like a validation failure (counted in canary_rejections as well as
  /// failed_reloads) and every shard is left bitwise untouched. With
  /// fewer than health.canary_min_windows retained windows (cold engine)
  /// the canary is skipped. Every successful swap then enters PROBATION
  /// (health.probation_windows scored windows) during which a
  /// model-degradation verdict from PollHealth rolls the engine back to
  /// the retained last-known-good generation; surviving probation
  /// promotes the new generation to last-known-good.
  ///
  /// Degraded mode: if the candidate fails to load or validate, the
  /// engine KEEPS SERVING the current generation untouched and returns a
  /// descriptive error (failed_reloads counts it). A REJECTED reload also
  /// re-arms every monitor signal: the excursion that prompted the repair
  /// attempt is still live, and each failed attempt should produce a fresh
  /// advisory rather than silence (tests/hot_swap_test.cc pins this).
  /// Concurrent reloads are serialized; the engine always converges to
  /// exactly one live generation (the last successful swap wins). Returns
  /// the new generation id on success.
  StatusOr<int64_t> ReloadArtifact(const std::string& path);

  /// \brief The live generation id (1 = the construction-time ensemble).
  int64_t generation() const;

  /// \brief Feed one Stats() snapshot to the engine's HealthMonitor.
  /// Returns a HealthEvent the first time a signal crosses its threshold,
  /// then nothing until that signal clears (per-signal hysteresis). When
  /// the verdict is kModelDegradation and the live generation is inside
  /// its probation window, the engine AUTOMATICALLY rolls back to the
  /// last-known-good generation — shard by shard, under the reload lock,
  /// restoring the retained generation with its ORIGINAL id — and marks
  /// the event rolled_back. Outside probation a degradation event is
  /// advisory only (the operator decides). Always nullopt when every
  /// signal is off (health off and drift_threshold <= 0). Thread-safe;
  /// call it from the same cadence as FlushIfExpired.
  std::optional<HealthEvent> PollHealth();

  /// \brief Forwards to PollHealth. Exists only for
  /// benchmark/src/trace.cc, which still calls it; nothing else may.
  std::optional<HealthEvent> PollDrift();

  /// \brief Test hook (tests/fault_injection_test.cc): wires fault
  /// injection into artifact loads and flush scoring. Call before
  /// concurrent use; nullptr (the default) in production.
  void set_fault_injector(FaultInjector* fault);

  /// \brief Retry/backoff knobs for ReloadArtifact's read stage.
  void set_load_retry_policy(const LoadRetryPolicy& retry) {
    retry_ = retry;
  }

  /// \brief Monitoring counters summed across shards; `drift` and the four
  /// health gauges are the MAX over shards (a healthy fleet with one
  /// broken shard should read as broken, not averaged away), plus the
  /// engine-level lifecycle and health-event fields (generation, reloads,
  /// failed_reloads, canary_rejections, rollbacks, per-signal event
  /// counts). See EngineStats (serve/shard.h), docs/thresholds.md, and
  /// docs/operations.md.
  EngineStats Stats() const;

  /// \brief Monitor armed-state accessor, exposed so tests can pin the
  /// reset/re-arm protocol around rejected reloads and rollbacks
  /// (tests/hot_swap_test.cc); not meant for production decisions.
  bool health_armed(HealthSignal signal) const;
  /// \brief Whether the live generation is still inside its probation
  /// window (always false with health off).
  bool in_probation() const;

  /// \brief Open sessions across all shards.
  int64_t num_streams() const;
  /// \brief Ready windows currently waiting for a batch slot, all shards.
  int64_t pending_windows() const;
  /// \brief Heap bytes owned by the serving layer (all shards' ring slabs,
  /// session records, index tables, pending pools, staging buffers — at
  /// capacity). The bytes-per-idle-stream number in docs/capacity.md is
  /// this, divided by open streams; tests/serve_test.cc pins it exactly.
  size_t MemoryBytes() const;

  int64_t num_shards() const { return static_cast<int64_t>(shards_.size()); }
  const ServeConfig& config() const { return config_; }
  /// \brief The LIVE generation's calibrated threshold.
  std::optional<double> threshold() const;
  /// \brief The live generation's SPOT init params, or nullptr — i.e.
  /// whether kSpot sessions can be opened (capability is invariant across
  /// reloads, so the null-ness never changes; the pointee is valid until
  /// the next successful reload).
  const core::SpotInit* spot() const;

  /// \brief The stream -> shard assignment (SplitMix64 hash mod
  /// num_shards). Exposed so tests and capacity tooling can reason about
  /// co-sharded streams; the mapping is a deployment detail, not an API
  /// promise — scores never depend on it.
  static size_t ShardOf(int64_t stream_id, size_t num_shards);

 private:
  EngineShard& ShardFor(int64_t stream_id) {
    return *shards_[ShardOf(stream_id, shards_.size())];
  }

  std::shared_ptr<const Generation> CurrentGeneration() const;

  ServeConfig config_;
  // The live generation handle (serve/generation.h). gen_mu_ guards only
  // the POINTER — scoring threads never touch it (each shard holds its own
  // reference under its own lock).
  mutable std::mutex gen_mu_;
  std::shared_ptr<const Generation> gen_;
  // Serializes ReloadArtifact calls end to end: two concurrent reloads
  // must converge to ONE live generation (the second swap fully replaces
  // the first), never interleave their shard fan-outs.
  std::mutex reload_mu_;
  LoadRetryPolicy retry_;
  FaultInjector* fault_ = nullptr;  // test hook; null in production
  std::atomic<int64_t> reloads_ok_{0};
  std::atomic<int64_t> reloads_failed_{0};
  // Drift + model-health escalation and probation state, guarded by
  // health_mu_. Lock order (docs/serving.md): reload_mu_ (when held at all)
  // strictly before any of gen_mu_ / health_mu_ / a shard mutex, which are
  // leaf locks taken one at a time and never nested into each other while
  // another is held — except that PollHealth reads gen_ via
  // CurrentGeneration() before taking health_mu_, never after.
  mutable std::mutex health_mu_;
  HealthMonitor health_monitor_;
  // Last-known-good generation, retained for automatic rollback. Starts
  // as generation 1 (known-good by definition: the operator deployed it);
  // promoted to the live generation when a probation window is survived.
  std::shared_ptr<const Generation> last_good_;
  bool in_probation_ = false;
  int64_t probation_start_windows_ = 0;  // Stats().scored_windows at swap
  std::atomic<int64_t> rollbacks_{0};
  std::atomic<int64_t> canary_rejections_{0};
  // Per-signal HealthMonitor firings, indexed by HealthSignal.
  std::atomic<int64_t> signal_events_[kNumHealthSignals] = {};
  // unique_ptr per shard: EngineShard owns a mutex (immovable), and each
  // shard gets its own cache-line neighborhood instead of sharing one
  // contiguous allocation with its siblings.
  std::vector<std::unique_ptr<EngineShard>> shards_;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_SERVING_ENGINE_H_
