#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "core/health.h"
#include "core/streaming.h"

namespace caee {
namespace serve {

namespace {

// SplitMix64 finalizer: the same mix ServingEngine::ShardOf uses, reused
// here to spread sequential stream ids across index slots.
uint64_t MixId(int64_t id) {
  uint64_t x = static_cast<uint64_t>(id);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Health-ring bin sentinel for non-finite scores (core::kHealthBins is 32,
// far below it). Non-finite windows are excluded from the histogram — they
// feed the non-finite-rate gauge instead.
constexpr uint8_t kNonFiniteBin = 0xff;

// Guard for dividing by a (theoretically) zero reference dispersion.
constexpr double kDispersionFloor = 1e-12;

}  // namespace

// ---------------------------------------------------------------------------
// StreamIndex
// ---------------------------------------------------------------------------

uint32_t StreamIndex::Find(int64_t key) const {
  if (entries_.empty()) return kNotFound;
  const size_t mask = entries_.size() - 1;
  size_t i = static_cast<size_t>(MixId(key)) & mask;
  while (state_[i] != kEmpty) {
    if (state_[i] == kFull && entries_[i].key == key) {
      return entries_[i].slot;
    }
    i = (i + 1) & mask;
  }
  return kNotFound;
}

void StreamIndex::Insert(int64_t key, uint32_t slot) {
  CAEE_CHECK_MSG(Find(key) == kNotFound, "StreamIndex: duplicate key");
  // Grow past 70% occupancy (full + tombstones — probes walk both).
  if (entries_.empty() || (used_ + 1) * 10 >= entries_.size() * 7) {
    const size_t want = std::max<size_t>(16, (size_ + 1) * 2);
    size_t cap = 16;
    while (cap < want) cap <<= 1;
    Rehash(cap);
  }
  const size_t mask = entries_.size() - 1;
  size_t i = static_cast<size_t>(MixId(key)) & mask;
  while (state_[i] == kFull) i = (i + 1) & mask;
  if (state_[i] == kEmpty) ++used_;  // reusing a tombstone keeps used_
  state_[i] = kFull;
  entries_[i] = Entry{key, slot};
  ++size_;
}

void StreamIndex::Erase(int64_t key) {
  CAEE_CHECK_MSG(!entries_.empty(), "StreamIndex: erase from empty index");
  const size_t mask = entries_.size() - 1;
  size_t i = static_cast<size_t>(MixId(key)) & mask;
  while (state_[i] != kEmpty) {
    if (state_[i] == kFull && entries_[i].key == key) {
      state_[i] = kTombstone;  // keeps probe chains through this slot alive
      --size_;
      return;
    }
    i = (i + 1) & mask;
  }
  CAEE_CHECK_MSG(false, "StreamIndex: erase of absent key");
}

void StreamIndex::Rehash(size_t new_capacity) {
  std::vector<Entry> old_entries = std::move(entries_);
  std::vector<uint8_t> old_state = std::move(state_);
  entries_.assign(new_capacity, Entry{0, 0});
  state_.assign(new_capacity, kEmpty);
  used_ = 0;
  const size_t mask = new_capacity - 1;
  for (size_t j = 0; j < old_entries.size(); ++j) {
    if (old_state[j] != kFull) continue;
    size_t i = static_cast<size_t>(MixId(old_entries[j].key)) & mask;
    while (state_[i] == kFull) i = (i + 1) & mask;
    state_[i] = kFull;
    entries_[i] = old_entries[j];
    ++used_;
  }
}

size_t StreamIndex::MemoryBytes() const {
  return entries_.capacity() * sizeof(Entry) +
         state_.capacity() * sizeof(uint8_t);
}

// ---------------------------------------------------------------------------
// EngineShard
// ---------------------------------------------------------------------------

EngineShard::EngineShard(std::shared_ptr<const Generation> gen,
                         const ShardConfig& config,
                         core::ThresholdPolicy default_policy)
    : gen_(std::move(gen)),
      config_(config),
      default_policy_(default_policy) {
  CAEE_CHECK_MSG(gen_ != nullptr, "null generation");
  CAEE_CHECK_MSG(gen_->ensemble != nullptr, "null ensemble");
  CAEE_CHECK_MSG(gen_->ensemble->fitted(),
                 "EngineShard needs a fitted ensemble");
  CAEE_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  CAEE_CHECK_MSG(default_policy_ != core::ThresholdPolicy::kSpot ||
                     gen_->spot != nullptr,
                 "default policy kSpot needs SPOT init params");
  window_ = gen_->ensemble->config().window;
  dims_ = gen_->ensemble->input_dim();
  ring_stride_ = static_cast<size_t>(window_ * dims_);
  spot_stride_ = gen_->spot != nullptr
                     ? static_cast<size_t>(gen_->spot->config.peak_capacity)
                     : 0;
  if (gen_->spot != nullptr) {
    // Drift needs the calibration baseline, so it exists exactly when
    // SPOT params do. Fixed capacity up front: drift updates never
    // allocate.
    drift_ring_.resize(kDriftWindow, 0);
  }
  if (config_.health) {
    CAEE_CHECK_MSG(gen_->health != nullptr,
                   "health monitoring needs a health-calibrated generation "
                   "(train with --health; docs/operations.md)");
    CAEE_CHECK_MSG(config_.canary_capacity >= 1,
                   "canary_capacity must be >= 1 when health is on");
    // Everything the health path touches is sized here, once: steady-state
    // scoring with health on still allocates nothing.
    health_bin_ring_.resize(kHealthWindow, 0);
    health_alert_ring_.resize(kHealthWindow, 0);
    health_disp_ring_.resize(kHealthWindow, 0.0);
    health_bin_counts_.resize(core::kHealthBins, 0);
    canary_ring_.resize(static_cast<size_t>(config_.canary_capacity) *
                        ring_stride_);
  }
}

void EngineShard::AdoptGeneration(std::shared_ptr<const Generation> gen) {
  std::lock_guard<std::mutex> lock(mu_);
  // The engine validated compatibility before fan-out; re-CHECK the slab
  // geometry the session store is sized by — a mismatch here would corrupt
  // every ring.
  CAEE_CHECK_MSG(gen != nullptr && gen->ensemble != nullptr,
                 "AdoptGeneration: null generation");
  CAEE_CHECK_MSG(gen->ensemble->config().window == window_ &&
                     gen->ensemble->input_dim() == dims_,
                 "AdoptGeneration: window/dims mismatch past validation");
  CAEE_CHECK_MSG((gen->spot != nullptr) == (gen_->spot != nullptr),
                 "AdoptGeneration: SPOT capability mismatch past validation");
  CAEE_CHECK_MSG(gen->spot == nullptr ||
                     static_cast<size_t>(gen->spot->config.peak_capacity) ==
                         spot_stride_,
                 "AdoptGeneration: peak capacity mismatch past validation");
  CAEE_CHECK_MSG(!config_.health || gen->health != nullptr,
                 "AdoptGeneration: health reference missing past validation");
  gen_ = std::move(gen);
  // Restart drift accounting: the statistic compares live traffic against
  // the CALIBRATION baseline, and that baseline just changed. Mixing
  // exceed bits measured against the old t with the new level would read
  // as phantom drift (or mask real drift) right after a swap.
  if (!drift_ring_.empty()) {
    std::fill(drift_ring_.begin(), drift_ring_.end(), 0);
  }
  drift_head_ = 0;
  drift_count_ = 0;
  drift_exceed_ = 0;
  // The health ring restarts for the same reason: its bins were indexed
  // against the OLD generation's calibration histogram. The canary buffer
  // survives — it holds raw input windows, which no generation owns, so a
  // reload arriving shortly after a swap (or a rollback) still has traffic
  // to shadow-score.
  if (config_.health) {
    std::fill(health_bin_ring_.begin(), health_bin_ring_.end(), 0);
    std::fill(health_alert_ring_.begin(), health_alert_ring_.end(), 0);
    std::fill(health_disp_ring_.begin(), health_disp_ring_.end(), 0.0);
    std::fill(health_bin_counts_.begin(), health_bin_counts_.end(), 0);
    health_head_ = 0;
    health_count_ = 0;
    health_alerts_ = 0;
    health_nonfinite_ = 0;
    health_disp_sum_ = 0.0;
    health_disp_count_ = 0;
  }
}

Status EngineShard::OpenStream(int64_t stream_id,
                               core::ThresholdPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy == core::ThresholdPolicy::kSpot && gen_->spot == nullptr) {
    return Status::FailedPrecondition(
        "stream " + std::to_string(stream_id) +
        " requested the spot policy but the engine has no SPOT init "
        "params (train with --spot; docs/thresholds.md)");
  }
  if (index_.Find(stream_id) != StreamIndex::kNotFound) {
    return Status::FailedPrecondition(
        "stream " + std::to_string(stream_id) + " is already open");
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(sessions_.size());
    sessions_.emplace_back();
    rings_.resize(rings_.size() + ring_stride_);
    policies_.push_back(0);
  }
  sessions_[slot] = PackedSession{};  // recycled slots start cold
  policies_[slot] = static_cast<uint8_t>(policy);
  if (policy == core::ThresholdPolicy::kSpot) {
    // Only kSpot sessions read SPOT state, so the slabs grow to cover a
    // slot when the first kSpot session opens in it: an all-static engine
    // carries none.
    if (spot_tails_.size() <= slot) {
      spot_tails_.resize(slot + 1);
      spot_peaks_.resize(spot_tails_.size() * spot_stride_);
    }
    // A fresh (or recycled) session restarts SPOT from the calibrated
    // init, matching the cold window ring.
    core::SpotSeedTail(*gen_->spot, &spot_tails_[slot], SpotPeaksOf(slot));
  }
  index_.Insert(stream_id, slot);
  return Status::OK();
}

Status EngineShard::CloseStream(int64_t stream_id,
                                std::vector<StreamScore>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t slot = index_.Find(stream_id);
  if (slot == StreamIndex::kNotFound) {
    return Status::NotFound("stream " + std::to_string(stream_id) +
                            " is not open");
  }
  // Drain THIS SHARD's queue before the session disappears — a pending
  // window of this stream must still be scored and attributed to it.
  // Other shards' queues are untouched (that independence is the point of
  // sharding; see docs/serving.md "Close semantics").
  CAEE_RETURN_NOT_OK(FlushLocked(out));
  index_.Erase(stream_id);
  free_slots_.push_back(slot);
  return Status::OK();
}

Status EngineShard::Push(int64_t stream_id,
                         const std::vector<float>& observation,
                         std::vector<StreamScore>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t slot = index_.Find(stream_id);
  if (slot == StreamIndex::kNotFound) {
    return Status::NotFound("stream " + std::to_string(stream_id) +
                            " is not open (protocol: open it first)");
  }
  if (static_cast<int64_t>(observation.size()) != dims_) {
    return Status::InvalidArgument(
        "observation has " + std::to_string(observation.size()) +
        " dims but the stream carries " + std::to_string(dims_));
  }
  // Like the width check: rejected BEFORE any state changes (the same
  // guard core::WindowState::Push applies on the single-stream path).
  for (float v : observation) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "observation contains a non-finite value");
    }
  }
  PackedSession& session = sessions_[slot];
  const bool will_enqueue = session.count + 1 >= window_;
  if (will_enqueue && config_.max_pending > 0 &&
      static_cast<int64_t>(pending_count_) >= config_.max_pending) {
    // Admission control: reject BEFORE any state changes so the caller can
    // retry the same observation after draining (the binary protocol's
    // backpressure frame; docs/protocol.md). The session cursor, the ring,
    // and every other shard are untouched.
    return Status::ResourceExhausted(
        "shard pending pool is full (" + std::to_string(pending_count_) +
        " windows, max_pending " + std::to_string(config_.max_pending) +
        ") — drain or retry later");
  }

  float* ring = RingOf(slot);
  core::WindowState::WriteRingRow(ring, dims_, session.head,
                                  observation.data());
  session.head = static_cast<uint32_t>((session.head + 1) % window_);
  session.count = std::min<uint32_t>(session.count + 1,
                                     static_cast<uint32_t>(window_));
  ++session.seen;
  if (session.count < window_) return Status::OK();

  // Snapshot now: the ring overwrites its oldest row on the next push.
  // Recycled pool entries keep their snapshot capacity, so a warm shard
  // enqueues without allocating.
  if (pending_count_ == pending_.size()) pending_.emplace_back();
  PendingWindow& pending = pending_[pending_count_++];
  pending.stream_id = stream_id;
  pending.index = session.seen - 1;
  pending.enqueued_at = std::chrono::steady_clock::now();
  pending.values.resize(ring_stride_);
  core::WindowState::CopyRingWindow(ring, window_, dims_, session.head,
                                    pending.values.data());

  if (static_cast<int64_t>(pending_count_) >= config_.max_batch) {
    return FlushLocked(out);
  }
  return Status::OK();
}

Status EngineShard::Flush(std::vector<StreamScore>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked(out);
}

Status EngineShard::FlushIfExpired(std::vector<StreamScore>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.flush_deadline_ms <= 0 || pending_count_ == 0) {
    return Status::OK();
  }
  const auto waited =
      std::chrono::steady_clock::now() - pending_.front().enqueued_at;
  if (waited < std::chrono::milliseconds(config_.flush_deadline_ms)) {
    return Status::OK();
  }
  return FlushLocked(out);
}

Status EngineShard::FlushLocked(std::vector<StreamScore>* out) {
  size_t next = 0;
  while (next < pending_count_) {
    const int64_t batch = std::min<int64_t>(
        static_cast<int64_t>(pending_count_ - next), config_.max_batch);
    // One (B, w, D) staging buffer, one batched graph-free forward pass per
    // basic model (ScoreWindowsLastInto). Both staging vectors are
    // grow-only, so a warm flush allocates nothing.
    if (batch_values_.size() < static_cast<size_t>(batch) * ring_stride_) {
      batch_values_.resize(static_cast<size_t>(batch) * ring_stride_);
    }
    for (int64_t b = 0; b < batch; ++b) {
      std::memcpy(
          batch_values_.data() + static_cast<size_t>(b) * ring_stride_,
          pending_[next + static_cast<size_t>(b)].values.data(),
          ring_stride_ * sizeof(float));
    }
    // With health on, the same forward pass also yields each window's
    // member dispersion (the agreement-collapse signal) — the 4-arg
    // overload reuses the member-score buffer, so this costs one extra
    // median pass and no allocation.
    std::vector<double>* dispersions =
        config_.health ? &batch_dispersions_ : nullptr;
    if (Status s = gen_->ensemble->ScoreWindowsLastInto(batch_values_.data(),
                                                        batch,
                                                        &batch_scores_,
                                                        dispersions);
        !s.ok()) {
      // Keep the unscored tail queued: recycle the scored prefix by
      // swapping the survivors to the front (swap preserves the pool
      // entries' snapshot capacity).
      for (size_t i = next; i < pending_count_; ++i) {
        std::swap(pending_[i - next], pending_[i]);
      }
      pending_count_ -= next;
      return s;
    }
    if (fault_ != nullptr) {
      // Test hook: a poisoned-model burst. Injected AFTER the forward pass
      // so the NaN takes the real verdict/stats path (docs/thresholds.md's
      // NaN rule is what is under test). One branch when no injector is
      // wired — the production hot path is untouched.
      for (int64_t b = 0; b < batch; ++b) {
        if (fault_->ConsumeNanScore()) {
          batch_scores_[static_cast<size_t>(b)] =
              std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
    if (config_.health) {
      // Retain the scored windows for canary shadow-scoring: raw inputs,
      // newest-wins ring, plain memcpy into a fixed slab.
      const uint32_t capacity = static_cast<uint32_t>(config_.canary_capacity);
      for (int64_t b = 0; b < batch; ++b) {
        std::memcpy(
            canary_ring_.data() +
                static_cast<size_t>(canary_head_) * ring_stride_,
            batch_values_.data() + static_cast<size_t>(b) * ring_stride_,
            ring_stride_ * sizeof(float));
        canary_head_ = (canary_head_ + 1) % capacity;
        canary_count_ = std::min(canary_count_ + 1, capacity);
      }
    }
    for (int64_t b = 0; b < batch; ++b) {
      const PendingWindow& p = pending_[next + static_cast<size_t>(b)];
      StreamScore result;
      result.stream_id = p.stream_id;
      result.index = p.index;
      result.score = batch_scores_[static_cast<size_t>(b)];
      result.flag = VerdictLocked(
          p.stream_id, result.score,
          config_.health ? batch_dispersions_[static_cast<size_t>(b)] : 0.0);
      result.generation = gen_->id;
      if (out != nullptr) out->push_back(result);
    }
    next += static_cast<size_t>(batch);
  }
  pending_count_ = 0;
  return Status::OK();
}

bool EngineShard::VerdictLocked(int64_t stream_id, double score,
                                double dispersion) {
  ++stats_.scored_windows;
  const bool finite = std::isfinite(score);
  if (!finite) ++stats_.non_finite_scores;

  // Verdicts run in per-shard arrival order (FlushLocked walks the queue
  // front to back), which preserves each stream's own observation order —
  // the whole SPOT determinism argument. The close protocol drains this
  // queue before the session is erased, so the slot lookup can only miss
  // if a caller bypasses it; fall back to the static verdict then.
  bool flag;
  const uint32_t slot = index_.Find(stream_id);
  if (slot != StreamIndex::kNotFound &&
      policies_[slot] ==
          static_cast<uint8_t>(core::ThresholdPolicy::kSpot)) {
    flag = core::SpotObserve(*gen_->spot, &spot_tails_[slot],
                             SpotPeaksOf(slot), score);
  } else {
    // NaN-safe static verdict: a non-finite score always flags, even
    // without a calibrated threshold (`score > threshold` alone is
    // false for NaN — the silent-non-alert bug this replaced).
    flag = !finite ||
           (gen_->threshold.has_value() && score > *gen_->threshold);
  }
  if (flag) ++stats_.alerts;

  if (gen_->spot != nullptr) {
    // Drift ring: exceed bit vs the CALIBRATION peaks threshold t (not
    // the adaptive z — the point is to compare live traffic against what
    // the artifact promised). Non-finite scores count as exceeds.
    const uint8_t exceed = (!finite || score > gen_->spot->t) ? 1 : 0;
    if (drift_count_ == kDriftWindow) {
      drift_exceed_ -= drift_ring_[drift_head_];
    } else {
      ++drift_count_;
    }
    drift_ring_[drift_head_] = exceed;
    drift_head_ = (drift_head_ + 1) % kDriftWindow;
    drift_exceed_ += exceed;
  }

  if (config_.health) {
    // Health record ring: evict the oldest record from the aggregates,
    // then add this one. All fixed-capacity — no allocation.
    if (health_count_ == kHealthWindow) {
      const uint8_t old_bin = health_bin_ring_[health_head_];
      if (old_bin == kNonFiniteBin) {
        --health_nonfinite_;
      } else {
        --health_bin_counts_[old_bin];
      }
      health_alerts_ -= health_alert_ring_[health_head_];
      const double old_disp = health_disp_ring_[health_head_];
      if (std::isfinite(old_disp)) {
        health_disp_sum_ -= old_disp;
        --health_disp_count_;
      }
    } else {
      ++health_count_;
    }
    uint8_t bin = kNonFiniteBin;
    if (finite) {
      bin = static_cast<uint8_t>(core::HealthBinIndex(*gen_->health, score));
      ++health_bin_counts_[bin];
    } else {
      ++health_nonfinite_;
    }
    health_bin_ring_[health_head_] = bin;
    health_alert_ring_[health_head_] = flag ? 1 : 0;
    health_alerts_ += flag ? 1 : 0;
    health_disp_ring_[health_head_] = dispersion;
    if (std::isfinite(dispersion)) {
      health_disp_sum_ += dispersion;
      ++health_disp_count_;
    }
    health_head_ = (health_head_ + 1) % kHealthWindow;
  }
  return flag;
}

EngineStats EngineShard::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats stats = stats_;
  stats.drift_window = drift_count_;
  if (gen_->spot != nullptr && drift_count_ > 0) {
    const double observed = static_cast<double>(drift_exceed_) /
                            static_cast<double>(drift_count_);
    stats.drift = std::abs(observed - (1.0 - gen_->spot->config.level));
  }
  if (config_.health && health_count_ > 0) {
    stats.health_window = health_count_;
    const double n = static_cast<double>(health_count_);
    stats.non_finite_rate = static_cast<double>(health_nonfinite_) / n;
    stats.alert_rate = static_cast<double>(health_alerts_) / n;
    const int64_t finite = static_cast<int64_t>(health_count_) -
                           static_cast<int64_t>(health_nonfinite_);
    stats.score_shift = core::HealthTotalVariation(
        *gen_->health, health_bin_counts_.data(), finite);
    if (health_disp_count_ > 0) {
      const double live = health_disp_sum_ /
                          static_cast<double>(health_disp_count_);
      stats.dispersion_ratio =
          live / std::max(gen_->health->mean_dispersion, kDispersionFloor);
    }
  }
  return stats;
}

int64_t EngineShard::CopyCanaryWindows(std::vector<float>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.health || canary_count_ == 0) return 0;
  const size_t old_size = out->size();
  out->resize(old_size + static_cast<size_t>(canary_count_) * ring_stride_);
  std::memcpy(out->data() + old_size, canary_ring_.data(),
              static_cast<size_t>(canary_count_) * ring_stride_ *
                  sizeof(float));
  return canary_count_;
}

int64_t EngineShard::num_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(index_.size());
}

int64_t EngineShard::pending_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_count_);
}

size_t EngineShard::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = sizeof(*this);
  bytes += rings_.capacity() * sizeof(float);
  bytes += sessions_.capacity() * sizeof(PackedSession);
  bytes += policies_.capacity() * sizeof(uint8_t);
  bytes += spot_tails_.capacity() * sizeof(core::SpotTail);
  bytes += spot_peaks_.capacity() * sizeof(double);
  bytes += drift_ring_.capacity() * sizeof(uint8_t);
  bytes += free_slots_.capacity() * sizeof(uint32_t);
  bytes += index_.MemoryBytes();
  bytes += pending_.capacity() * sizeof(PendingWindow);
  for (const PendingWindow& p : pending_) {
    bytes += p.values.capacity() * sizeof(float);
  }
  bytes += batch_values_.capacity() * sizeof(float);
  bytes += batch_scores_.capacity() * sizeof(double);
  bytes += health_bin_ring_.capacity() * sizeof(uint8_t);
  bytes += health_alert_ring_.capacity() * sizeof(uint8_t);
  bytes += health_disp_ring_.capacity() * sizeof(double);
  bytes += health_bin_counts_.capacity() * sizeof(int64_t);
  bytes += canary_ring_.capacity() * sizeof(float);
  bytes += batch_dispersions_.capacity() * sizeof(double);
  return bytes;
}

}  // namespace serve
}  // namespace caee
