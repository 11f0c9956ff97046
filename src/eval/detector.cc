#include "eval/detector.h"

#include "baselines/ae_ensemble.h"
#include "baselines/isolation_forest.h"
#include "baselines/lof.h"
#include "baselines/mas.h"
#include "baselines/mscred_lite.h"
#include "baselines/ocsvm.h"
#include "baselines/omni_anomaly_lite.h"
#include "baselines/rae.h"
#include "baselines/rae_ensemble.h"
#include "baselines/rnn_vae.h"
#include "core/ensemble.h"

namespace caee {
namespace eval {

namespace {

// Generic adapter: wraps any baseline exposing Fit/Score. Owns the model by
// pointer because several baselines are neither copyable nor movable (they
// hold pimpl'd networks).
template <typename Model>
class Adapter : public Detector {
 public:
  template <typename Config>
  Adapter(std::string name, const Config& config)
      : name_(std::move(name)), model_(std::make_unique<Model>(config)) {}
  std::string name() const override { return name_; }
  Status Fit(const ts::TimeSeries& train) override {
    return model_->Fit(train);
  }
  StatusOr<std::vector<double>> Score(const ts::TimeSeries& test) override {
    return model_->Score(test);
  }
  Model& model() { return *model_; }

 private:
  std::string name_;
  std::unique_ptr<Model> model_;
};

class CaeEnsembleDetector : public Detector {
 public:
  CaeEnsembleDetector(std::string name, const core::EnsembleConfig& config)
      : name_(std::move(name)), ensemble_(config) {}
  std::string name() const override { return name_; }
  Status Fit(const ts::TimeSeries& train) override {
    return ensemble_.Fit(train);
  }
  StatusOr<std::vector<double>> Score(const ts::TimeSeries& test) override {
    return ensemble_.Score(test);
  }
  core::CaeEnsemble& ensemble() { return ensemble_; }

 private:
  std::string name_;
  core::CaeEnsemble ensemble_;
};

core::EnsembleConfig BuildEnsembleConfig(const SuiteConfig& s, bool ensemble) {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = s.embed_dim;
  cfg.cae.num_layers = s.cae_layers;
  cfg.cae.kernel = s.kernel;
  cfg.window = s.window;
  cfg.num_models = ensemble ? s.num_models : 1;
  cfg.epochs_per_model = s.epochs_per_model;
  cfg.batch_size = s.batch_size;
  cfg.lr = s.lr;
  cfg.lambda = s.lambda;
  cfg.beta = s.beta;
  cfg.diversity_enabled = ensemble;
  cfg.transfer_enabled = ensemble;
  cfg.num_threads = s.num_threads;
  cfg.max_train_windows = s.max_train_windows;
  cfg.seed = s.seed;
  return cfg;
}

// The CAE-Ensemble ablations: the paper's Table 5 and Fig. 17, and the
// interpretation choices this implementation made. Each entry changes one
// setting of the suite's CAE-Ensemble config. Table 5's "No ensemble" is
// the plain "CAE" detector, and Fig. 16 (the number of basic models) is
// --models k: an M=k fit trains exactly the first k members of a larger one.
using Config = core::EnsembleConfig;

struct CaeVariant {
  const char* suffix;  // the detector is "CAE-Ensemble/<suffix>"
  void (*apply)(Config* config);
};

constexpr CaeVariant kCaeVariants[] = {
    {"no-attention",
     [](Config* c) { c->cae.attention = core::AttentionMode::kNone; }},
    {"no-diversity", [](Config* c) { c->diversity_enabled = false; }},
    {"no-transfer", [](Config* c) { c->transfer_enabled = false; }},
    // Table 5's and Table 6's "No diversity": members trained independently.
    {"independent",
     [](Config* c) {
       c->diversity_enabled = false;
       c->transfer_enabled = false;
     }},
    {"no-rescale", [](Config* c) { c->rescale_enabled = false; }},
    {"attention-last",
     [](Config* c) { c->cae.attention = core::AttentionMode::kLastLayer; }},
    // ReLU random features for both embedding projections.
    {"relu-embedding",
     [](Config* c) {
       c->embed_obs_act = nn::Activation::kRelu;
       c->embed_pos_act = nn::Activation::kRelu;
     }},
    // The raw Eq. 13 objective, without the K < J guard.
    {"uncapped-diversity", [](Config* c) { c->diversity_cap_ratio = 0.0f; }},
    {"no-denoise", [](Config* c) { c->denoise_std = 0.0f; }},
    {"kernel5", [](Config* c) { c->cae.kernel = 5; }},
    {"kernel7", [](Config* c) { c->cae.kernel = 7; }},
    {"kernel9", [](Config* c) { c->cae.kernel = 9; }},
};

constexpr char kCaeEnsemble[] = "CAE-Ensemble";

}  // namespace

PaperHyperparameters Table2Hyperparameters(const std::string& dataset) {
  // Paper Table 2 (median-strategy selections).
  if (dataset == "ECG") return {0.5f, 2.0f, 16};
  if (dataset == "MSL") return {0.7f, 16.0f, 16};
  if (dataset == "SMAP") return {0.9f, 2.0f, 16};
  if (dataset == "SMD") return {0.2f, 32.0f, 32};
  if (dataset == "WADI") return {0.5f, 1.0f, 32};
  return {};
}

std::vector<std::string> AllDetectorNames() {
  return {"ISF",    "LOF",         "MAS", "OCSVM",        "MSCRED",
          "OMNIANOMALY", "RNNVAE", "AE-Ensemble", "RAE", "RAE-Ensemble",
          "CAE",    "CAE-Ensemble"};
}

std::vector<std::string> CaeEnsembleVariantNames() {
  std::vector<std::string> names;
  for (const auto& variant : kCaeVariants) {
    names.push_back(std::string(kCaeEnsemble) + "/" + variant.suffix);
  }
  return names;
}

StatusOr<core::EnsembleConfig> CaeDetectorConfig(const std::string& name,
                                                 const SuiteConfig& s) {
  if (name == "CAE") return BuildEnsembleConfig(s, /*ensemble=*/false);
  core::EnsembleConfig config = BuildEnsembleConfig(s, /*ensemble=*/true);
  if (name == kCaeEnsemble) return config;
  for (const auto& variant : kCaeVariants) {
    if (name == std::string(kCaeEnsemble) + "/" + variant.suffix) {
      variant.apply(&config);
      return config;
    }
  }
  return Status::NotFound("unknown detector: " + name);
}

StatusOr<std::unique_ptr<Detector>> MakeDetector(const std::string& name,
                                                 const SuiteConfig& s) {
  if (name == "ISF") {
    baselines::IsolationForestConfig cfg;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::IsolationForest>(
            name, cfg));
  }
  if (name == "LOF") {
    baselines::LofConfig cfg;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::Lof>(name, cfg));
  }
  if (name == "MAS") {
    baselines::MasConfig cfg;
    cfg.window = s.window;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::MovingAverageSmoothing>(
            name, cfg));
  }
  if (name == "OCSVM") {
    baselines::OcsvmConfig cfg;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::Ocsvm>(name, cfg));
  }
  if (name == "MSCRED") {
    baselines::MscredConfig cfg;
    cfg.seed = s.seed;
    cfg.epochs = s.ae_epochs;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::MscredLite>(name, cfg));
  }
  if (name == "OMNIANOMALY") {
    baselines::OmniAnomalyConfig cfg;
    cfg.window = s.window;
    cfg.hidden = s.rnn_hidden;
    cfg.epochs = s.rnn_epochs;
    cfg.batch_size = s.batch_size;
    cfg.max_train_windows = s.max_train_windows;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(new Adapter<baselines::OmniAnomalyLite>(
        name, cfg));
  }
  if (name == "RNNVAE") {
    baselines::RnnVaeConfig cfg;
    cfg.window = s.window;
    cfg.hidden = s.rnn_hidden;
    cfg.epochs = s.rnn_epochs;
    cfg.batch_size = s.batch_size;
    cfg.max_train_windows = s.max_train_windows;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::RnnVae>(name, cfg));
  }
  if (name == "AE-Ensemble") {
    baselines::AeEnsembleConfig cfg;
    cfg.num_models = s.num_models;
    cfg.epochs = s.ae_epochs;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::AeEnsemble>(name, cfg));
  }
  if (name == "RAE") {
    baselines::RaeConfig cfg;
    cfg.window = s.window;
    cfg.hidden = s.rnn_hidden;
    cfg.epochs = s.rnn_epochs;
    cfg.batch_size = s.batch_size;
    cfg.max_train_windows = s.max_train_windows;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(
        new Adapter<baselines::Rae>(name, cfg));
  }
  if (name == "RAE-Ensemble") {
    baselines::RaeEnsembleConfig cfg;
    cfg.rae.window = s.window;
    cfg.rae.hidden = s.rnn_hidden;
    cfg.rae.epochs = s.rnn_epochs;
    cfg.rae.batch_size = s.batch_size;
    cfg.rae.max_train_windows = s.max_train_windows;
    cfg.num_models = s.num_models;
    cfg.seed = s.seed;
    return std::unique_ptr<Detector>(new Adapter<baselines::RaeEnsemble>(
        name, cfg));
  }
  auto config = CaeDetectorConfig(name, s);
  if (!config.ok()) return config.status();
  return std::unique_ptr<Detector>(new CaeEnsembleDetector(name, *config));
}

}  // namespace eval
}  // namespace caee
