// CAE-Ensemble (paper Sec. 3.2): sequentially generated CAE basic models
// trained with the diversity-driven objective L = J - λ·K (Eq. 13), born-
// again-style parameter transfer of a random β fraction between consecutive
// models (Fig. 9), and median aggregation of per-model reconstruction errors
// (Eq. 15).
//
// The window embedding is shared across basic models and fixed after random
// initialisation (a random-features map), which keeps Algorithm 1's single
// "X = Embedding(T_windows)" semantics and makes per-model errors
// comparable; see DESIGN.md "Embedding scope" for the rationale.

#ifndef CAEE_CORE_ENSEMBLE_H_
#define CAEE_CORE_ENSEMBLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/cae.h"
#include "core/parallel_trainer.h"
#include "infer/plan.h"
#include "nn/embedding.h"
#include "nn/serialize.h"
#include "ts/scaler.h"
#include "ts/time_series.h"
#include "ts/window.h"

namespace caee {
namespace core {

/// \brief Every knob of the ensemble: the paper's hyperparameters, the
/// CPU-scale guards, and the parallel-engine worker count. A config is
/// validated by the CaeEnsemble constructor (CHECK) or, for untrusted
/// persisted configs, by CaeEnsemble::Restore (Status).
struct EnsembleConfig {
  CaeConfig cae;
  int64_t window = 16;           // w
  int64_t num_models = 8;        // M (paper default: 8)
  int64_t epochs_per_model = 3;  // n in Sec. 3.2.1 (paper: 50 on GPU)
  int64_t batch_size = 64;
  float lr = 1e-3f;              // Adam, paper Sec. 4.1.5
  float lambda = 0.5f;           // diversity weight λ (Eq. 13; stable range (0,1) under MSE-normalised J/K — see DESIGN.md)
  float beta = 0.5f;             // parameter-transfer fraction β (Fig. 9)
  float grad_clip = 5.0f;        // global-norm clip (stability guard)
  /// Denoising training: Gaussian noise of this stddev (in embedded space)
  /// is added to the model input each step while the reconstruction target
  /// stays clean. The CAE of Eq. 6 feeds the encoder state of the SAME
  /// position into the decoder, so it has no information bottleneck — with
  /// enough training it converges to the identity map and reconstruction
  /// errors stop carrying anomaly signal (stuck-sensor anomalies even score
  /// LOW, being trivially copyable). Denoising restores the manifold-
  /// projection behaviour reconstruction scoring relies on. 0 disables.
  float denoise_std = 0.25f;
  /// Stability guard for Eq. 13: J − λ·K is unbounded below when λ >= 1
  /// (growing K quadratically beats J), so the −λK term is applied only
  /// while K < diversity_cap_ratio · J. Models are pushed apart until they
  /// disagree with the ensemble as much as they disagree with the data,
  /// then reconstruction takes over. Set <= 0 for the raw (unguarded)
  /// objective.
  float diversity_cap_ratio = 1.0f;
  /// Diversity curriculum: the −λK term is active only during the first
  /// fraction of each basic model's epochs; the remaining epochs refine
  /// reconstruction from the diversified starting point. At the paper's 50
  /// epochs/model the split hardly matters; at CPU-scale epoch budgets it
  /// keeps late-generation models from being frozen mid-push with degraded
  /// reconstructions. 1 = diversity active throughout (paper-faithful).
  float diversity_epoch_fraction = 0.5f;
  bool diversity_enabled = true; // ablation "No diversity" sets false
  bool transfer_enabled = true;  // disabled alongside diversity in ablation
  bool rescale_enabled = true;   // ablation "No re-scaling" sets false
  /// Activations of the shared (frozen) window embedding. With a fixed
  /// random-features map, a LINEAR projection preserves distances between
  /// windows (Johnson-Lindenstrauss), so anomaly signal survives the
  /// compression; ReLU would zero half the directions. Set to kRelu for the
  /// trainable-embedding reading of the paper.
  nn::Activation embed_obs_act = nn::Activation::kIdentity;
  nn::Activation embed_pos_act = nn::Activation::kIdentity;
  int64_t max_train_windows = 0; // 0 = use all windows; else subsample evenly
  bool shuffle = true;
  /// Early stopping on the per-epoch reconstruction loss J: a model's epoch
  /// loop ends once the relative improvement drops below this tolerance
  /// (0 = train exactly epochs_per_model epochs). Combined with parameter
  /// transfer this is what makes later basic models cheaper to train
  /// (Table 7's ensemble/single ratio < M).
  float early_stop_rel_tol = 0.0f;
  /// Worker count for the parallel execution engine (see parallel_trainer.h):
  /// batch pre-embedding, denoising-noise generation, the frozen-model
  /// ensemble-output pass, per-member scoring, and — when transfer and
  /// diversity are both disabled — whole-member training all fan out over
  /// common::ThreadPool::Global(). Anomaly scores are bitwise identical at
  /// any thread count. The value bounds TOTAL parallelism — engine fan-out
  /// and the tensor kernels dispatched under it (via ParallelismCap).
  /// 0 = global parallelism level (hardware concurrency unless overridden);
  /// 1 = fully sequential fallback.
  int64_t num_threads = 0;
  uint64_t seed = 7;
  bool verbose = false;
};

/// \brief Bookkeeping of one Fit call (Table 7 reporting); reset by every
/// Fit, empty on a Restore'd ensemble.
struct TrainStats {
  std::vector<std::vector<double>> per_model_epoch_loss;  // J - λK per epoch
  double train_seconds = 0.0;
  int64_t parameters_per_model = 0;
};

/// \brief Born-again parameter transfer (Fig. 9): copy an element-wise
/// Bernoulli(beta) mask of `from`'s parameters into `to`. The modules must
/// have identical parameter sets (same names/shapes). Returns the fraction
/// of scalars actually copied.
double TransferParameters(const nn::Module& from, nn::Module* to, float beta,
                          Rng* rng);

class CaeEnsemble {
 public:
  explicit CaeEnsemble(const EnsembleConfig& config);

  /// \brief Train the ensemble on an (unlabeled) series. Labels, if present,
  /// are ignored. Re-fitting replaces all models.
  Status Fit(const ts::TimeSeries& train);

  /// \brief Per-observation outlier scores (Eq. 15 median across models,
  /// Fig. 10 window policy). Requires Fit.
  StatusOr<std::vector<double>> Score(const ts::TimeSeries& series) const;

  /// \brief Per-model score streams (same policy, no median) — lets callers
  /// evaluate model-count prefixes (Fig. 16).
  StatusOr<std::vector<std::vector<double>>> PerModelScores(
      const ts::TimeSeries& series) const;

  /// \brief Mean reconstruction MSE over all models/windows — the
  /// unsupervised validation quality score of Algorithm 2.
  StatusOr<double> MeanReconstructionError(const ts::TimeSeries& series) const;

  /// \brief Ensemble diversity DIV_F (Eq. 10) evaluated on `series`
  /// (Table 6).
  StatusOr<double> Diversity(const ts::TimeSeries& series) const;

  /// \brief Score a single raw (1, w, D) window: median across models of the
  /// last observation's reconstruction error. This is the online-inference
  /// path measured in Table 8 (see StreamingScorer). Delegates to
  /// ScoreWindowsLast with B = 1.
  StatusOr<double> ScoreWindowLast(const Tensor& window) const;

  /// \brief Batched online scoring: score B raw (B, w, D) windows in ONE
  /// forward pass per basic model, returning one last-position score per
  /// window (same policy as ScoreWindowLast). The windows are independent —
  /// they may come from B different streams — and every per-element
  /// computation reduces only within its own window, so scores[i] is
  /// bitwise identical to ScoreWindowLast(windows[i]) for any B, any batch
  /// composition, and any num_threads (the cross-stream micro-batching
  /// contract; see docs/serving.md and docs/numeric-contract.md). This is
  /// the entry point serve::ServingEngine amortises the per-window forward
  /// pass with: O(streams / batch) batched GEMMs instead of O(streams)
  /// sequential ones.
  StatusOr<std::vector<double>> ScoreWindowsLast(const Tensor& windows) const;

  /// \brief Allocation-free form of ScoreWindowsLast: `windows` is a raw
  /// (batch, w, D) row-major buffer, `scores` is resized to `batch` (its
  /// capacity is reused across calls). With num_threads == 1, steady-state
  /// calls perform ZERO heap allocations — activations live in per-thread
  /// arenas, scratch and score buffers are grow-only (asserted by
  /// tests/alloc_count_test.cc). This is the entry point
  /// serve::ServingEngine's flush loop runs.
  Status ScoreWindowsLastInto(const float* windows, int64_t batch,
                              std::vector<double>* scores) const {
    return ScoreWindowsLastInto(windows, batch, scores, nullptr);
  }

  /// \brief As above, additionally producing one member-agreement dispersion
  /// per window when `dispersions` is non-null: the relative median absolute
  /// deviation of the per-member last-position errors around their median
  /// (Eq. 15's aggregation input), i.e. median_m |e_m - med| / max(med, eps).
  /// Diversity-driven members agree on normal data, so a sustained rise of
  /// this statistic is the serve layer's label-free model-degradation signal
  /// (serve::HealthMonitor — docs/operations.md). Passing null skips the
  /// second median pass entirely; with it the call stays zero-alloc (the
  /// extra pass reuses the same grow-only scratch).
  Status ScoreWindowsLastInto(const float* windows, int64_t batch,
                              std::vector<double>* scores,
                              std::vector<double>* dispersions) const;

  /// \brief Change the parallel-engine worker count after construction.
  /// Scoring parallelism is a runtime choice (trained weights are
  /// thread-count independent), so a fitted ensemble can be re-targeted
  /// without retraining.
  void set_num_threads(int64_t n) { config_.num_threads = n; }

  /// \brief Rebuild a fitted ensemble from persisted state (the inverse of
  /// the accessors below; used by core::LoadEnsemble). `config` must carry a
  /// resolved embed_dim (> 0), `member_states` one StateDict per configured
  /// model, and `scaler` fitted statistics whenever rescaling is enabled.
  /// All inputs are validated — mismatched shapes or counts return a
  /// non-OK Status, never abort.
  static StatusOr<std::unique_ptr<CaeEnsemble>> Restore(
      const EnsembleConfig& config, int64_t input_dim,
      const nn::StateDict& embedding_state,
      const std::vector<nn::StateDict>& member_states, ts::Scaler scaler);

  /// \brief Input dimensionality the ensemble was fitted on. Requires Fit
  /// (or Restore).
  int64_t input_dim() const;

  /// \brief Fitted preprocessing statistics (empty when rescaling is off).
  const ts::Scaler& scaler() const { return scaler_; }

  /// \brief The shared frozen window embedding. Requires Fit (or Restore).
  const nn::WindowEmbedding& embedding() const;

  /// \brief True after a successful Fit or Restore; every scoring entry
  /// point requires it (unfitted calls return FailedPrecondition).
  bool fitted() const { return fitted_; }
  /// \brief Trained basic models (== config().num_models once fitted).
  int64_t num_models() const { return static_cast<int64_t>(models_.size()); }
  /// \brief The configuration this ensemble was constructed with, with
  /// Fit-time resolutions applied (e.g. auto-sized embed_dim).
  const EnsembleConfig& config() const { return config_; }
  /// \brief Timing/loss bookkeeping of the last Fit (empty after Restore).
  const TrainStats& train_stats() const { return stats_; }
  /// \brief Basic model i in generation order; i in [0, num_models()).
  const Cae& model(int64_t i) const { return *models_[static_cast<size_t>(i)]; }

 private:
  /// \brief Embed a raw window batch with the frozen shared embedding; the
  /// result is a constant graph leaf (no gradient bookkeeping).
  ag::Var EmbedConstant(const Tensor& batch) const;

  /// \brief Embedding of a raw window batch into a plain tensor through
  /// the compiled EmbeddingPlan.
  Tensor EmbedBatch(const Tensor& batch) const;

  /// \brief Forward-only reconstruction by member `mi` through its
  /// compiled CaePlan, into a fresh tensor. The batched-scoring hot path
  /// runs the plans directly on arena buffers instead.
  Tensor ReconstructForward(size_t mi, const Tensor& x) const;

  /// \brief Compile the embedding + member forward plans from the fitted
  /// modules; called at the end of Fit and Restore (weight tensors must not
  /// be reallocated afterwards — the plans hold raw pointers into them).
  void CompilePlans();

  /// \brief Z-score a raw (batch, w, D) window buffer into `out` with the
  /// fitted scaler stats — the same per-element double-precision transform
  /// Preprocess applies, over hoisted row pointers.
  void ScaleWindowsRaw(const float* windows, int64_t batch, float* out) const;

  /// \brief Preprocess a series per the config (optional z-score transform).
  ts::TimeSeries Preprocess(const ts::TimeSeries& series) const;

  /// \brief Shared scoring-path wave loop: embed `batches` a bounded wave
  /// at a time (O(threads) embedded tensors resident, not O(series)), then
  /// fan fn(mi, batch_index, x) over the (member x wave) grid. fn must
  /// write only state owned by its (mi, batch_index) slot.
  void ForEachEmbeddedBatch(
      const ts::WindowDataset& dataset,
      const std::vector<std::vector<int64_t>>& batches,
      const ParallelTrainer& trainer,
      const std::function<void(size_t, size_t, const Tensor&)>& fn) const;

  /// \brief Train one basic model on the pre-embedded batches.
  /// `ensemble_output_sum` (running sum of frozen-model outputs, divided by
  /// `mi` to form F(X) of Eq. 12) is null when the diversity term is off,
  /// `transfer_from` is null when β transfer is off. Safe to run
  /// concurrently for different members when both are null.
  std::unique_ptr<Cae> TrainMember(
      int64_t mi, MemberRngStreams* streams, const ParallelTrainer& trainer,
      const std::vector<Tensor>& embedded_batches, double embed_std,
      const std::vector<Tensor>* ensemble_output_sum, const Cae* transfer_from,
      std::vector<double>* epoch_losses) const;

  EnsembleConfig config_;
  ts::Scaler scaler_;
  std::unique_ptr<nn::WindowEmbedding> embedding_;
  std::vector<std::unique_ptr<Cae>> models_;
  // Compiled graph-free forward plans (one per member + the shared
  // embedding), rebuilt by CompilePlans after every Fit/Restore. All member
  // plans share one arena slot layout: a thread executes one member at a
  // time, so per-thread arenas never see two members concurrently.
  std::unique_ptr<infer::EmbeddingPlan> embed_plan_;
  std::vector<infer::CaePlan> member_plans_;
  TrainStats stats_;
  bool fitted_ = false;
};

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_ENSEMBLE_H_
