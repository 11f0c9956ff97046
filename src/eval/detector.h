// Uniform detector interface over the core model and every baseline, plus a
// name-based factory. This is what the benches and examples drive.

#ifndef CAEE_EVAL_DETECTOR_H_
#define CAEE_EVAL_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ensemble.h"
#include "ts/time_series.h"

namespace caee {
namespace eval {

class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string name() const = 0;
  virtual Status Fit(const ts::TimeSeries& train) = 0;
  virtual StatusOr<std::vector<double>> Score(const ts::TimeSeries& test) = 0;
};

/// \brief Shared sizing knobs for the detector suite — one place to trade
/// fidelity against CPU budget. Defaults are sized for a 2-core laptop run;
/// the paper-scale values are noted inline.
struct SuiteConfig {
  int64_t window = 16;            // w (paper Table 2: 16 or 32)
  int64_t embed_dim = 0;          // D' (paper: 256; 0 = auto-size)
  int64_t cae_layers = 2;         // conv layers (paper: 10)
  int64_t kernel = 3;             // conv kernel (paper: 3)
  int64_t num_models = 5;         // M (paper: 8)
  int64_t epochs_per_model = 2;   // n (paper: 50)
  int64_t rnn_hidden = 24;
  int64_t rnn_epochs = 3;
  int64_t ae_epochs = 10;
  int64_t batch_size = 64;        // paper: 64
  int64_t max_train_windows = 384;
  float lr = 1e-3f;               // paper: 0.001 (Adam)
  float lambda = 0.5f;            // λ (paper Table 2 values are on a sum-scaled loss; 0.5 is the MSE-normalised equivalent band)
  float beta = 0.5f;              // β (paper Table 2: 0.2..0.9 per dataset)
  int64_t num_threads = 0;        // parallel engine workers (0 = hardware)
  uint64_t seed = 7;
};

/// \brief The paper's Table 2 hyperparameters selected by the median
/// strategy, keyed by dataset name (ECG/MSL/SMAP/SMD/WADI).
struct PaperHyperparameters {
  float beta = 0.5f;
  float lambda = 2.0f;
  int64_t window = 16;
};
PaperHyperparameters Table2Hyperparameters(const std::string& dataset);

/// \brief Detector names in the paper's Table 3/4 row order.
std::vector<std::string> AllDetectorNames();

/// \brief The CAE-Ensemble ablation variants, "CAE-Ensemble/<change>":
/// no-attention, no-diversity, no-transfer, independent (both off),
/// no-rescale, attention-last, relu-embedding, uncapped-diversity,
/// no-denoise, kernel5, kernel7, kernel9. Each changes one setting of
/// CAE-Ensemble's config (docs/evaluation.md "The paper's tables"). Not in
/// AllDetectorNames(): the default gauntlet run stays the 12 detectors.
std::vector<std::string> CaeEnsembleVariantNames();

/// \brief The ensemble config of "CAE", "CAE-Ensemble" or one of
/// CaeEnsembleVariantNames() under `config`; NotFound for any other name.
StatusOr<core::EnsembleConfig> CaeDetectorConfig(const std::string& name,
                                                 const SuiteConfig& config);

/// \brief Create a detector by name: one of AllDetectorNames() ("ISF",
/// "LOF", "MAS", "OCSVM", "MSCRED", "OMNIANOMALY", "RNNVAE", "AE-Ensemble",
/// "RAE", "RAE-Ensemble", "CAE", "CAE-Ensemble") or
/// CaeEnsembleVariantNames().
StatusOr<std::unique_ptr<Detector>> MakeDetector(const std::string& name,
                                                 const SuiteConfig& config);

}  // namespace eval
}  // namespace caee

#endif  // CAEE_EVAL_DETECTOR_H_
