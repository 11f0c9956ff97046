#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/diversity.h"
#include "core/scoring.h"
#include "infer/arena.h"
#include "optim/adam.h"
#include "optim/clip.h"

namespace caee {
namespace core {

namespace {

// Arena slot layout of the scoring hot path. The compiled member plans get
// everything from kSlotPlanBase upward; the slots below hold the buffers
// the caller keeps live across a plan execution (the scaled raw windows,
// the shared embedded batch, and the per-thread reconstruction output).
constexpr size_t kSlotScaled = 0;
constexpr size_t kSlotEmbed = 1;
constexpr size_t kSlotRecon = 2;
constexpr size_t kSlotPlanBase = 3;

}  // namespace

CaeEnsemble::CaeEnsemble(const EnsembleConfig& config) : config_(config) {
  CAEE_CHECK_MSG(config_.num_models >= 1, "need at least one basic model");
  CAEE_CHECK_MSG(config_.window >= 2, "window must be >= 2");
  CAEE_CHECK_MSG(config_.beta >= 0.0f && config_.beta <= 1.0f,
                 "beta must be in [0, 1]");
  CAEE_CHECK_MSG(config_.epochs_per_model >= 1, "epochs_per_model >= 1");
}

int64_t CaeEnsemble::input_dim() const {
  CAEE_CHECK_MSG(fitted_, "input_dim before Fit");
  return embedding_->input_dim();
}

const nn::WindowEmbedding& CaeEnsemble::embedding() const {
  CAEE_CHECK_MSG(fitted_, "embedding before Fit");
  return *embedding_;
}

StatusOr<std::unique_ptr<CaeEnsemble>> CaeEnsemble::Restore(
    const EnsembleConfig& config, int64_t input_dim,
    const nn::StateDict& embedding_state,
    const std::vector<nn::StateDict>& member_states, ts::Scaler scaler) {
  // The constructor CHECK-aborts on malformed configs; persisted configs are
  // untrusted input, so validate with Status first (LoadEnsemble range-checks
  // the rest of the fields while parsing).
  if (config.num_models < 1 || config.window < 2 ||
      config.epochs_per_model < 1 || config.beta < 0.0f ||
      config.beta > 1.0f || config.cae.num_layers < 1 ||
      config.cae.kernel < 1) {
    return Status::InvalidArgument("restored config fails basic invariants");
  }
  if (config.cae.embed_dim <= 0) {
    return Status::InvalidArgument(
        "restored config must carry a resolved embed_dim (> 0)");
  }
  // Joint size bound: each field can be individually sane while the product
  // implies terabytes of conv weights — and models are constructed BEFORE
  // LoadStateDict can reject shapes, so an unchecked product would turn a
  // crafted artifact into a bad_alloc abort. ~1e9 parameters (4 GB) is far
  // above any real ensemble (paper scale is ~8e7).
  const double approx_params = static_cast<double>(config.cae.embed_dim) *
                               static_cast<double>(config.cae.embed_dim) *
                               static_cast<double>(config.cae.kernel) *
                               static_cast<double>(config.cae.num_layers) *
                               static_cast<double>(config.num_models);
  if (approx_params > 1e9) {
    return Status::InvalidArgument(
        "restored config implies an absurd parameter count");
  }
  if (input_dim < 1) {
    return Status::InvalidArgument("restored input_dim must be >= 1");
  }
  if (static_cast<int64_t>(member_states.size()) != config.num_models) {
    return Status::InvalidArgument(
        "artifact has " + std::to_string(member_states.size()) +
        " member state dicts for num_models=" +
        std::to_string(config.num_models));
  }
  if (config.rescale_enabled) {
    if (!scaler.fitted() ||
        static_cast<int64_t>(scaler.mean().size()) != input_dim) {
      return Status::InvalidArgument(
          "rescaling is enabled but scaler state is missing or has wrong "
          "dimensionality");
    }
  }

  auto ensemble = std::make_unique<CaeEnsemble>(config);
  ensemble->scaler_ = std::move(scaler);

  // Freshly initialised weights are immediately overwritten by the state
  // dicts, so the RNG here only has to exist.
  Rng init_rng(config.seed);
  ensemble->embedding_ = std::make_unique<nn::WindowEmbedding>(
      input_dim, config.cae.embed_dim, config.window, &init_rng,
      config.embed_obs_act, config.embed_pos_act);
  CAEE_RETURN_NOT_OK(
      nn::LoadStateDict(ensemble->embedding_.get(), embedding_state));
  for (auto& [name, var] : ensemble->embedding_->NamedParameters()) {
    var->set_requires_grad(false);
  }

  for (int64_t mi = 0; mi < config.num_models; ++mi) {
    auto model = std::make_unique<Cae>(config.cae, &init_rng);
    if (Status s = nn::LoadStateDict(
            model.get(), member_states[static_cast<size_t>(mi)]);
        !s.ok()) {
      return Status::InvalidArgument("member " + std::to_string(mi) + ": " +
                                     s.message());
    }
    ensemble->models_.push_back(std::move(model));
  }
  ensemble->stats_.parameters_per_model =
      ensemble->models_.front()->NumParameters();
  ensemble->CompilePlans();
  ensemble->fitted_ = true;
  return ensemble;
}

void CaeEnsemble::CompilePlans() {
  embed_plan_ = std::make_unique<infer::EmbeddingPlan>(
      infer::EmbeddingPlan::Compile(*embedding_));
  member_plans_.clear();
  member_plans_.reserve(models_.size());
  for (const auto& model : models_) {
    member_plans_.push_back(model->CompilePlan(kSlotPlanBase));
  }
}

Tensor CaeEnsemble::EmbedBatch(const Tensor& batch) const {
  Tensor out = Tensor::Uninitialized(
      Shape{batch.dim(0), batch.dim(1), config_.cae.embed_dim});
  embed_plan_->Execute(batch.data(), batch.dim(0), out.data());
  return out;
}

Tensor CaeEnsemble::ReconstructForward(size_t mi, const Tensor& x) const {
  Tensor out = Tensor::Uninitialized(x.shape());
  member_plans_[mi].Execute(x.data(), x.dim(0), x.dim(1),
                            &infer::ThreadArena(), out.data());
  return out;
}

ts::TimeSeries CaeEnsemble::Preprocess(const ts::TimeSeries& series) const {
  if (!config_.rescale_enabled) return series;
  return scaler_.Transform(series);
}

ag::Var CaeEnsemble::EmbedConstant(const Tensor& batch) const {
  ag::Var x = embedding_->Forward(ag::Constant(batch));
  // Snapshot the value; drop the graph (embedding is frozen).
  return ag::Constant(x->value());
}

double TransferParameters(const nn::Module& from, nn::Module* to, float beta,
                          Rng* rng) {
  auto src = from.NamedParameters();
  auto dst = to->NamedParameters();
  CAEE_CHECK_MSG(src.size() == dst.size(),
                 "models must have identical parameter sets");
  int64_t copied = 0, total = 0;
  for (size_t i = 0; i < src.size(); ++i) {
    CAEE_CHECK_MSG(src[i].first == dst[i].first, "parameter name mismatch");
    const Tensor& s = src[i].second->value();
    Tensor& d = dst[i].second->mutable_value();
    CAEE_CHECK(s.SameShape(d));
    for (int64_t j = 0; j < s.numel(); ++j) {
      ++total;
      if (rng->Bernoulli(beta)) {
        d[j] = s[j];
        ++copied;
      }
    }
  }
  return total > 0 ? static_cast<double>(copied) / total : 0.0;
}

Status CaeEnsemble::Fit(const ts::TimeSeries& train) {
  if (train.length() < config_.window) {
    return Status::InvalidArgument("training series shorter than window");
  }
  if (train.dims() < 1) {
    return Status::InvalidArgument("training series has no dimensions");
  }
  Stopwatch timer;
  Rng rng(config_.seed);
  models_.clear();
  stats_ = TrainStats{};
  const EngineScope engine(config_.num_threads);
  const ParallelTrainer& trainer = engine.trainer();

  // Auto-size the embedding from the input dimensionality (D' = 0 means
  // "pick for me"): wide enough to carry the signal, small enough for CPU
  // conv budgets.
  if (config_.cae.embed_dim == 0) {
    const int64_t d = train.dims();
    config_.cae.embed_dim = d <= 32 ? 16 : (d <= 96 ? 24 : 32);
  }

  if (config_.rescale_enabled) scaler_.Fit(train);
  const ts::TimeSeries scaled =
      config_.rescale_enabled ? scaler_.Transform(train) : train;

  // Shared frozen embedding (random-features map; see header).
  Rng embed_rng = rng.Fork();
  embedding_ = std::make_unique<nn::WindowEmbedding>(
      train.dims(), config_.cae.embed_dim, config_.window, &embed_rng,
      config_.embed_obs_act, config_.embed_pos_act);
  for (auto& [name, var] : embedding_->NamedParameters()) {
    var->set_requires_grad(false);
  }

  ts::WindowDataset dataset(scaled, config_.window);

  // Window subset (evenly spaced) when a training cap is configured.
  std::vector<int64_t> window_indices;
  if (config_.max_train_windows > 0 &&
      dataset.num_windows() > config_.max_train_windows) {
    const double stride = static_cast<double>(dataset.num_windows()) /
                          static_cast<double>(config_.max_train_windows);
    for (int64_t i = 0; i < config_.max_train_windows; ++i) {
      window_indices.push_back(static_cast<int64_t>(i * stride));
    }
  } else {
    window_indices.resize(static_cast<size_t>(dataset.num_windows()));
    for (int64_t i = 0; i < dataset.num_windows(); ++i) window_indices[i] = i;
  }
  if (config_.shuffle) {
    Rng shuffle_rng = rng.Fork();
    std::vector<size_t> perm = shuffle_rng.Permutation(window_indices.size());
    std::vector<int64_t> shuffled(window_indices.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      shuffled[i] = window_indices[perm[i]];
    }
    window_indices = std::move(shuffled);
  }

  // All RNG streams consumed during training are forked here, on the
  // orchestrating thread, in a fixed order — the parallel sections below
  // must not touch `rng`, or results would depend on execution order.
  std::vector<MemberRngStreams> streams =
      ForkMemberStreams(&rng, config_.num_models);

  // Pre-embed all training batches once (the embedding is frozen, so the
  // embedded windows are training-time constants — this is a large part of
  // the CAE-Ensemble's efficiency story). Batches are independent, so the
  // embedding pass fans out across the pool.
  std::vector<std::vector<int64_t>> batch_indices;
  for (size_t begin = 0; begin < window_indices.size();
       begin += static_cast<size_t>(config_.batch_size)) {
    const size_t end = std::min(window_indices.size(),
                                begin + static_cast<size_t>(config_.batch_size));
    batch_indices.emplace_back(window_indices.begin() + begin,
                               window_indices.begin() + end);
  }
  const size_t num_batches = batch_indices.size();
  std::vector<Tensor> embedded_batches(num_batches);
  trainer.Run(num_batches, [&](size_t b) {
    embedded_batches[b] =
        EmbedConstant(dataset.GetBatch(batch_indices[b]))->value();
  });

  // Scale for denoising noise: relative to the embedded signal's std so the
  // configured denoise_std means "fraction of signal scale" regardless of
  // input dimensionality.
  double embed_std = 1.0;
  if (config_.denoise_std > 0.0f && !embedded_batches.empty()) {
    double sum = 0.0, sq = 0.0;
    int64_t count = 0;
    for (const Tensor& batch : embedded_batches) {
      for (int64_t i = 0; i < batch.numel(); ++i) {
        sum += batch[i];
        sq += static_cast<double>(batch[i]) * batch[i];
        ++count;
      }
    }
    if (count > 0) {
      const double mean = sum / count;
      embed_std = std::sqrt(std::max(1e-12, sq / count - mean * mean));
    }
  }

  stats_.per_model_epoch_loss.assign(static_cast<size_t>(config_.num_models),
                                     {});

  // Without β transfer and without the diversity term there is no coupling
  // between basic models: each member's whole training loop is independent
  // work, so members train concurrently (Sarvari et al.-style independent
  // ensembles, the "No diversity" ablation, and the M=1 CAE baseline rows).
  const bool independent_members =
      !config_.transfer_enabled && !config_.diversity_enabled &&
      config_.num_models > 1;

  if (independent_members) {
    models_.resize(static_cast<size_t>(config_.num_models));
    trainer.Run(static_cast<size_t>(config_.num_models), [&](size_t mi) {
      models_[mi] = TrainMember(static_cast<int64_t>(mi), &streams[mi],
                                trainer, embedded_batches, embed_std,
                                /*ensemble_output_sum=*/nullptr,
                                /*transfer_from=*/nullptr,
                                &stats_.per_model_epoch_loss[mi]);
    });
    stats_.parameters_per_model = models_.front()->NumParameters();
  } else {
    // Paper-faithful generation chain: model mi starts from a β-masked copy
    // of model mi-1 and is pushed away from the frozen ensemble mean, so
    // members train in sequence; the engine parallelises the work inside
    // each member (noise generation, batch kernels) and the frozen-model
    // output pass below.
    //
    // Running sum of frozen-model outputs per batch, to form F(X) = mean of
    // previously trained models for the diversity term (Eq. 12).
    std::vector<Tensor> ensemble_output_sum(num_batches);
    for (int64_t mi = 0; mi < config_.num_models; ++mi) {
      auto model = TrainMember(
          mi, &streams[static_cast<size_t>(mi)], trainer, embedded_batches,
          embed_std,
          config_.diversity_enabled ? &ensemble_output_sum : nullptr,
          (mi > 0 && config_.transfer_enabled) ? models_.back().get()
                                               : nullptr,
          &stats_.per_model_epoch_loss[static_cast<size_t>(mi)]);
      if (mi == 0) stats_.parameters_per_model = model->NumParameters();

      // Freeze the model and fold its outputs into the ensemble mean cache
      // (per-batch independent -> fanned out). Only needed while a later
      // model will still consume the diversity term.
      if (config_.diversity_enabled && mi + 1 < config_.num_models) {
        const Cae* frozen = model.get();
        trainer.Run(num_batches, [&, frozen](size_t b) {
          ag::Var out = frozen->Reconstruct(ag::Constant(embedded_batches[b]));
          if (ensemble_output_sum[b].numel() == 0) {
            ensemble_output_sum[b] = out->value();
          } else {
            for (int64_t i = 0; i < out->value().numel(); ++i) {
              ensemble_output_sum[b][i] += out->value()[i];
            }
          }
        });
      }
      models_.push_back(std::move(model));
    }
  }

  CompilePlans();
  stats_.train_seconds = timer.ElapsedSeconds();
  fitted_ = true;
  return Status::OK();
}

std::unique_ptr<Cae> CaeEnsemble::TrainMember(
    int64_t mi, MemberRngStreams* streams, const ParallelTrainer& trainer,
    const std::vector<Tensor>& embedded_batches, double embed_std,
    const std::vector<Tensor>* ensemble_output_sum, const Cae* transfer_from,
    std::vector<double>* epoch_losses) const {
  const size_t num_batches = embedded_batches.size();
  auto model = std::make_unique<Cae>(config_.cae, &streams->model);
  if (transfer_from != nullptr) {
    TransferParameters(*transfer_from, model.get(), config_.beta,
                       &streams->transfer);
  }

  optim::Adam optimizer(model->Parameters(), config_.lr);
  double prev_recon = -1.0;
  std::vector<Tensor> noisy_batches(config_.denoise_std > 0.0f ? num_batches
                                                               : 0);
  for (int64_t epoch = 0; epoch < config_.epochs_per_model; ++epoch) {
    // Denoising inputs for this epoch: one RNG stream per batch, forked
    // sequentially here so the noise is a pure function of (seed, member,
    // epoch, batch) — then filled in parallel.
    if (config_.denoise_std > 0.0f) {
      const double sigma = config_.denoise_std * embed_std;
      std::vector<Rng> batch_rngs;
      batch_rngs.reserve(num_batches);
      for (size_t b = 0; b < num_batches; ++b) {
        batch_rngs.push_back(streams->noise.Fork());
      }
      trainer.Run(num_batches, [&](size_t b) {
        Tensor noisy = embedded_batches[b];
        for (int64_t i = 0; i < noisy.numel(); ++i) {
          noisy[i] += static_cast<float>(batch_rngs[b].Gaussian(0.0, sigma));
        }
        noisy_batches[b] = std::move(noisy);
      });
    }

    double epoch_loss = 0.0;
    double epoch_recon = 0.0;
    for (size_t b = 0; b < num_batches; ++b) {
      ag::Var x = ag::Constant(embedded_batches[b]);
      // The noisy slot is regenerated next epoch, so its tensor moves.
      ag::Var input = config_.denoise_std > 0.0f
                          ? ag::Constant(std::move(noisy_batches[b]))
                          : x;
      ag::Var recon = model->Reconstruct(input);
      ag::Var loss = ag::MseLoss(recon, x);  // J (Eq. 11), clean target
      epoch_recon += loss->value()[0];
      const bool diversity_active =
          static_cast<double>(epoch) <
          config_.diversity_epoch_fraction *
              static_cast<double>(config_.epochs_per_model);
      if (mi > 0 && ensemble_output_sum != nullptr && diversity_active) {
        Tensor f = (*ensemble_output_sum)[b];
        for (int64_t i = 0; i < f.numel(); ++i) {
          f[i] /= static_cast<float>(mi);
        }
        ag::Var k = ag::MseLoss(recon, ag::Constant(f));  // K (Eq. 12)
        const bool capped =
            config_.diversity_cap_ratio > 0.0f &&
            k->value()[0] >= config_.diversity_cap_ratio * loss->value()[0];
        if (!capped) {
          loss = ag::Sub(loss, ag::Scale(k, config_.lambda));  // Eq. 13
        }
      }
      epoch_loss += loss->value()[0];
      optimizer.ZeroGrad();
      ag::Backward(loss);
      optim::ClipGradNorm(optimizer.params(), config_.grad_clip);
      optimizer.Step();
    }
    epoch_losses->push_back(epoch_loss / static_cast<double>(num_batches));
    epoch_recon /= static_cast<double>(num_batches);
    if (config_.verbose) {
      CAEE_LOG(Info) << "model " << mi << " epoch " << epoch << " loss "
                     << epoch_losses->back() << " recon " << epoch_recon;
    }
    if (config_.early_stop_rel_tol > 0.0f && prev_recon >= 0.0) {
      const double improvement =
          (prev_recon - epoch_recon) / std::max(1e-12, prev_recon);
      if (improvement < config_.early_stop_rel_tol) {
        prev_recon = epoch_recon;
        break;
      }
    }
    prev_recon = epoch_recon;
  }
  return model;
}

void CaeEnsemble::ForEachEmbeddedBatch(
    const ts::WindowDataset& dataset,
    const std::vector<std::vector<int64_t>>& batches,
    const ParallelTrainer& trainer,
    const std::function<void(size_t, size_t, const Tensor&)>& fn) const {
  // Waves of a few batches per worker bound residency: a long series
  // embedded whole would be a window-factor copy of it. Wave size does not
  // affect results (fn writes per-(member, batch) slots only).
  const size_t m = models_.size();
  const size_t wave = std::max<size_t>(4, trainer.num_threads() * 4);
  for (size_t wb = 0; wb < batches.size(); wb += wave) {
    const size_t we = std::min(batches.size(), wb + wave);
    std::vector<Tensor> embedded(we - wb);
    trainer.Run(we - wb, [&](size_t i) {
      embedded[i] = EmbedBatch(dataset.GetBatch(batches[wb + i]));
    });
    trainer.RunGrid(m, we - wb, [&](size_t mi, size_t i) {
      fn(mi, wb + i, embedded[i]);
    });
  }
}

StatusOr<std::vector<std::vector<double>>> CaeEnsemble::PerModelScores(
    const ts::TimeSeries& series) const {
  if (!fitted_) return Status::FailedPrecondition("Score before Fit");
  if (series.length() < config_.window) {
    return Status::InvalidArgument("series shorter than window");
  }
  if (config_.rescale_enabled && series.dims() !=
      static_cast<int64_t>(scaler_.mean().size())) {
    return Status::InvalidArgument("series dimensionality mismatch");
  }
  const ts::TimeSeries scaled = Preprocess(series);
  ts::WindowDataset dataset(scaled, config_.window);
  const EngineScope engine(config_.num_threads);
  const ParallelTrainer& trainer = engine.trainer();

  const auto m = models_.size();
  std::vector<WindowScoreAssembler> assemblers(
      m, WindowScoreAssembler(dataset.num_windows(), config_.window));

  // Scoring is fully parallel: the (member x batch) grid fans out over the
  // pool, wave by wave. Each grid task writes only its own assembler
  // slots, so scores are bitwise identical at any thread count.
  const auto batches = dataset.Batches(config_.batch_size);
  ForEachEmbeddedBatch(dataset, batches, trainer,
                       [&](size_t mi, size_t b, const Tensor& x) {
    const Tensor recon = ReconstructForward(mi, x);
    const auto errors = WindowErrors(x, recon);
    for (size_t bi = 0; bi < batches[b].size(); ++bi) {
      assemblers[mi].AddWindow(batches[b][bi], errors[bi]);
    }
  });
  std::vector<std::vector<double>> per_model;
  per_model.reserve(m);
  for (const auto& a : assemblers) per_model.push_back(a.Finalize());
  return per_model;
}

StatusOr<std::vector<double>> CaeEnsemble::Score(
    const ts::TimeSeries& series) const {
  const EngineScope engine(config_.num_threads);
  auto per_model = PerModelScores(series);
  if (!per_model.ok()) return per_model.status();
  return MedianAcrossModels(per_model.value());
}

StatusOr<double> CaeEnsemble::MeanReconstructionError(
    const ts::TimeSeries& series) const {
  if (!fitted_) return Status::FailedPrecondition("evaluate before Fit");
  if (series.length() < config_.window) {
    return Status::InvalidArgument("series shorter than window");
  }
  const ts::TimeSeries scaled = Preprocess(series);
  ts::WindowDataset dataset(scaled, config_.window);
  const EngineScope engine(config_.num_threads);
  const ParallelTrainer& trainer = engine.trainer();

  // Per-(member, batch) partial sums, reduced in index order afterwards so
  // the result does not depend on task scheduling.
  const auto batches = dataset.Batches(config_.batch_size);
  const size_t m = models_.size();
  std::vector<double> partial(m * batches.size(), 0.0);
  ForEachEmbeddedBatch(dataset, batches, trainer,
                       [&](size_t mi, size_t b, const Tensor& x) {
    const Tensor recon = ReconstructForward(mi, x);
    const Tensor& xv = x;
    const Tensor& rv = recon;
    double acc = 0.0;
    for (int64_t j = 0; j < xv.numel(); ++j) {
      const double d = static_cast<double>(xv[j]) - rv[j];
      acc += d * d;
    }
    partial[mi * batches.size() + b] = acc / static_cast<double>(xv.numel());
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  const size_t count = partial.size();
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

StatusOr<double> CaeEnsemble::ScoreWindowLast(const Tensor& window) const {
  if (!fitted_) return Status::FailedPrecondition("score before Fit");
  if (window.rank() != 3 || window.dim(0) != 1 ||
      window.dim(1) != config_.window) {
    return Status::InvalidArgument("window must be (1, w, D)");
  }
  auto scores = ScoreWindowsLast(window);
  if (!scores.ok()) return scores.status();
  return scores.value().front();
}

StatusOr<std::vector<double>> CaeEnsemble::ScoreWindowsLast(
    const Tensor& windows) const {
  if (!fitted_) return Status::FailedPrecondition("score before Fit");
  if (windows.rank() != 3 || windows.dim(0) < 1 ||
      windows.dim(1) != config_.window) {
    return Status::InvalidArgument("windows must be (B, w, D) with B >= 1");
  }
  if (windows.dim(2) != input_dim()) {
    return Status::InvalidArgument("window dimensionality mismatch");
  }
  std::vector<double> scores;
  if (Status s = ScoreWindowsLastInto(windows.data(), windows.dim(0), &scores);
      !s.ok()) {
    return s;
  }
  return scores;
}

void CaeEnsemble::ScaleWindowsRaw(const float* windows, int64_t batch,
                                  float* out) const {
  // Per-element double-precision z-score, the exact op the single-window
  // path always ran — scaling is element-local, so batching cannot change
  // it. Raw row pointers with the per-dimension stats hoisted once, instead
  // of bounds-checked Tensor::at per element.
  const double* mean = scaler_.mean().data();
  const double* stddev = scaler_.stddev().data();
  const int64_t d = static_cast<int64_t>(scaler_.mean().size());
  const int64_t rows = batch * config_.window;
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = windows + r * d;
    float* dst = out + r * d;
    for (int64_t j = 0; j < d; ++j) {
      dst[j] = static_cast<float>((src[j] - mean[j]) / stddev[j]);
    }
  }
}

namespace {

// Floor of the member-dispersion denominator: median reconstruction errors
// are non-negative but can be exactly zero on degenerate inputs, and the
// relative statistic must stay finite.
constexpr double kDispersionEps = 1e-12;

// Relative median absolute deviation of the member errors in `column`
// (size m) around their median `med` — the member-agreement dispersion the
// health subsystem watches (docs/operations.md). Overwrites `column` with
// the absolute deviations.
double MemberDispersion(double* column, size_t m, double med) {
  for (size_t mi = 0; mi < m; ++mi) {
    column[mi] = std::fabs(column[mi] - med);
  }
  return MedianInPlace(column, m) / std::max(med, kDispersionEps);
}

}  // namespace

Status CaeEnsemble::ScoreWindowsLastInto(
    const float* windows, int64_t batch, std::vector<double>* scores,
    std::vector<double>* dispersions) const {
  if (!fitted_) return Status::FailedPrecondition("score before Fit");
  if (windows == nullptr || scores == nullptr || batch < 1) {
    return Status::InvalidArgument(
        "ScoreWindowsLastInto needs a window buffer, an output vector, and "
        "batch >= 1");
  }
  const int64_t w = config_.window;
  const int64_t d = input_dim();

  // The graph-free online-inference hot path (Table 8 at B = 1; the
  // multi-stream serving engine at B > 1): M compiled forward plans over
  // the whole window batch, fanned across the pool. Every kernel reduction
  // stays within one window's rows, so per-window results do not depend on
  // B. All buffers below are grow-only (thread arenas, kernel scratch,
  // thread_local staging) — steady-state calls allocate nothing.
  const int64_t dp = config_.cae.embed_dim;
  const EngineScope engine(config_.num_threads);
  const ParallelTrainer& trainer = engine.trainer();
  infer::Arena& arena = infer::ThreadArena();

  const float* input = windows;
  if (config_.rescale_enabled) {
    float* buf = arena.Slot(kSlotScaled, static_cast<size_t>(batch * w * d));
    ScaleWindowsRaw(windows, batch, buf);
    input = buf;
  }
  float* x = arena.Slot(kSlotEmbed, static_cast<size_t>(batch * w * dp));
  embed_plan_->Execute(input, batch, x);

  const size_t m = models_.size();
  // Member-major error matrix on the orchestrating thread; worker tasks
  // write disjoint rows through the raw pointer (capturing the pointer, not
  // the thread_local, so pool workers hit the caller's buffer).
  thread_local std::vector<double> errors;
  if (errors.size() < m * static_cast<size_t>(batch)) {
    errors.resize(m * static_cast<size_t>(batch));
  }
  double* errors_ptr = errors.data();
  const float* x_ptr = x;
  auto score_member = [this, x_ptr, errors_ptr, batch, w, dp](size_t mi) {
    infer::Arena& worker_arena = infer::ThreadArena();
    float* recon =
        worker_arena.Slot(kSlotRecon, static_cast<size_t>(batch * w * dp));
    member_plans_[mi].Execute(x_ptr, batch, w, &worker_arena, recon);
    LastPositionErrorsRaw(x_ptr, recon, batch, w, dp,
                          errors_ptr + static_cast<int64_t>(mi) * batch);
  };
  if (trainer.sequential()) {
    // Inline loop: no std::function construction, keeping the sequential
    // hot path allocation-free.
    for (size_t mi = 0; mi < m; ++mi) score_member(mi);
  } else {
    trainer.Run(m, score_member);
  }

  // Per-window median across members, reduced in index order (Eq. 15).
  scores->resize(static_cast<size_t>(batch));
  if (dispersions != nullptr) dispersions->resize(static_cast<size_t>(batch));
  thread_local std::vector<double> column;
  if (column.size() < m) column.resize(m);
  for (int64_t b = 0; b < batch; ++b) {
    for (size_t mi = 0; mi < m; ++mi) {
      column[mi] = errors_ptr[static_cast<int64_t>(mi) * batch + b];
    }
    const double med = MedianInPlace(column.data(), m);
    (*scores)[static_cast<size_t>(b)] = med;
    if (dispersions != nullptr) {
      // Second selection pass over the SAME buffer: MedianInPlace only
      // permuted the member values, and a median does not depend on input
      // order — so the dispersion is that of the member errors, with zero
      // allocations.
      (*dispersions)[static_cast<size_t>(b)] =
          MemberDispersion(column.data(), m, med);
    }
  }
  return Status::OK();
}

StatusOr<double> CaeEnsemble::Diversity(const ts::TimeSeries& series) const {
  if (!fitted_) return Status::FailedPrecondition("evaluate before Fit");
  if (series.length() < config_.window) {
    return Status::InvalidArgument("series shorter than window");
  }
  const ts::TimeSeries scaled = Preprocess(series);
  ts::WindowDataset dataset(scaled, config_.window);
  const EngineScope engine(config_.num_threads);
  const ParallelTrainer& trainer = engine.trainer();
  DiversityAccumulator acc(num_models());
  // Batch-at-a-time (the accumulator is order-sensitive state); the M
  // forward passes per batch fan across the pool.
  for (const auto& batch : dataset.Batches(config_.batch_size)) {
    const Tensor x = EmbedBatch(dataset.GetBatch(batch));
    std::vector<Tensor> outputs(models_.size());
    trainer.Run(models_.size(), [&](size_t mi) {
      outputs[mi] = ReconstructForward(mi, x);
    });
    acc.AddBatch(outputs);
  }
  return acc.Value();
}

}  // namespace core
}  // namespace caee
