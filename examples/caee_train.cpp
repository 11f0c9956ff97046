// caee_train: the OFFLINE half of the train/serve split (paper Sec. 4.2.7).
//
// Fits a CAE-Ensemble on a training series (a CSV file or a built-in
// synthetic dataset), calibrates an alert threshold on the training scores,
// and writes everything a serving process needs — config, scaler statistics,
// embedding and member weights, threshold — to a single versioned artifact
// that caee_serve consumes. See README "Offline training, online serving".
//
//   caee_train --input train.csv --output model.caee
//   caee_train --synthetic SMD --scale 0.2 --output model.caee
//       --dump-input train.csv --scores scores.txt

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "core/ensemble.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/threshold.h"
#include "data/registry.h"
#include "ts/csv.h"

using namespace caee;

namespace {

const char kUsage[] =
    "usage: caee_train --output model.caee\n"
    "                  (--input train.csv [--labels] | --synthetic NAME\n"
    "                   [--scale S])\n"
    "  data:      --input CSV (one observation per line; --labels strips a\n"
    "             trailing label column), or --synthetic ECG|SMD|MSL|SMAP|WADI\n"
    "  model:     --window W --models M --epochs E --batch B --embed-dim D'\n"
    "             --layers L --max-train-windows N --lr R --seed S --threads T\n"
    "  threshold: --topk-percent P (default 5; top P%% of training scores)\n"
    "             --spot also calibrates streaming SPOT threshold params\n"
    "             (docs/thresholds.md) tuned by --spot-q Q (default 1e-3),\n"
    "             --spot-level L (default 0.98), --spot-peaks N (default 64)\n"
    "  health:    --health also calibrates the model-health reference\n"
    "             (training-score histogram + member-dispersion baseline)\n"
    "             that caee_serve --health validates live traffic against\n"
    "             (docs/operations.md)\n"
    "  outputs:   --output artifact path (required)\n"
    "             --dump-input CSV copy of the training series (for replay)\n"
    "             --scores training-set scores, one per line (full precision)\n";

int Fail(const Status& status) {
  std::cerr << "caee_train: " << status << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.RejectUnknown(
      {"input", "labels", "synthetic", "scale", "output", "dump-input",
       "scores", "window", "models", "epochs", "batch", "embed-dim", "layers",
       "max-train-windows", "lr", "seed", "threads", "topk-percent", "spot",
       "spot-q", "spot-level", "spot-peaks", "health", "help"},
      kUsage);
  if (args.Has("help") || !args.Has("output") ||
      (args.Has("input") == args.Has("synthetic"))) {
    std::cerr << kUsage;
    return args.Has("help") ? 0 : 2;
  }

  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));

  // --- Training data -------------------------------------------------------
  ts::TimeSeries train;
  if (args.Has("input")) {
    auto series = ts::ReadCsv(args.Get("input", ""), args.Has("labels"));
    if (!series.ok()) return Fail(series.status());
    train = std::move(series).value();
  } else {
    auto dataset =
        data::MakeDataset(args.Get("synthetic", ""),
                          args.GetDouble("scale", 0.2), seed);
    if (!dataset.ok()) return Fail(dataset.status());
    train = std::move(dataset->train);
  }
  std::cout << "training series: " << train.length() << " observations x "
            << train.dims() << " dims\n";

  if (args.Has("dump-input")) {
    // Full-precision CSV: caee_serve re-reads exactly the floats trained on,
    // so its streaming scores reproduce the batch scores bit-for-bit. Labels
    // are dropped — a plain-numeric re-read must see only the values.
    ts::TimeSeries unlabeled(train.length(), train.dims());
    unlabeled.values() = train.values();
    if (Status s = ts::WriteCsv(unlabeled, args.Get("dump-input", ""));
        !s.ok()) {
      return Fail(s);
    }
  }

  // --- Fit -----------------------------------------------------------------
  core::EnsembleConfig config;
  config.window = args.GetInt("window", 16);
  config.num_models = args.GetInt("models", 4);
  config.epochs_per_model = args.GetInt("epochs", 3);
  config.batch_size = args.GetInt("batch", 64);
  config.cae.embed_dim = args.GetInt("embed-dim", 0);  // 0 = auto-size
  config.cae.num_layers = args.GetInt("layers", 2);
  config.max_train_windows = args.GetInt("max-train-windows", 0);
  config.lr = static_cast<float>(args.GetDouble("lr", 1e-3));
  config.num_threads = args.GetInt("threads", 0);
  config.seed = seed;
  // Validate before the CHECK-aborting constructor sees the config: flag
  // mistakes should read as usage errors, not crash dumps.
  if (config.window < 2 || config.num_models < 1 ||
      config.epochs_per_model < 1 || config.batch_size < 1 ||
      config.cae.embed_dim < 0 || config.cae.num_layers < 1) {
    std::cerr << "caee_train: need --window >= 2, --models/--epochs/--batch/"
                 "--layers >= 1, --embed-dim >= 0\n";
    return 2;
  }
  if (train.length() < config.window) {
    return Fail(Status::InvalidArgument(
        "training series shorter than the window"));
  }
  core::CaeEnsemble ensemble(config);
  if (Status s = ensemble.Fit(train); !s.ok()) return Fail(s);
  std::cout << "trained " << ensemble.num_models() << " models ("
            << ensemble.train_stats().parameters_per_model
            << " params each) in " << ensemble.train_stats().train_seconds
            << "s\n";

  // --- Threshold calibration on the (unlabeled) training scores ------------
  auto train_scores = ensemble.Score(train);
  if (!train_scores.ok()) return Fail(train_scores.status());
  core::ThresholdConfig threshold_config;
  threshold_config.strategy = core::ThresholdStrategy::kTopK;
  threshold_config.top_k_percent = args.GetDouble("topk-percent", 5.0);
  auto threshold =
      core::CalibrateThreshold(train_scores.value(), threshold_config);
  if (!threshold.ok()) return Fail(threshold.status());
  std::cout << "calibrated threshold (top " << threshold_config.top_k_percent
            << "%): " << threshold.value() << "\n";

  // --- Optional SPOT calibration (docs/thresholds.md) ----------------------
  std::optional<core::SpotInit> spot;
  if (args.Has("spot")) {
    core::SpotConfig spot_config;
    spot_config.q = args.GetDouble("spot-q", spot_config.q);
    spot_config.level = args.GetDouble("spot-level", spot_config.level);
    spot_config.peak_capacity =
        args.GetInt("spot-peaks", spot_config.peak_capacity);
    auto init = core::CalibrateSpot(train_scores.value(), spot_config);
    if (!init.ok()) return Fail(init.status());
    spot = std::move(init).value();
    std::cout << "calibrated SPOT (level " << spot_config.level << ", q "
              << spot_config.q << "): t " << spot->t << ", z " << spot->z
              << ", " << spot->peaks.size() << " seed peaks\n";
  }

  // --- Optional model-health calibration (docs/operations.md) --------------
  std::optional<core::HealthRef> health;
  if (args.Has("health")) {
    auto ref = core::CalibrateHealthRef(ensemble, train);
    if (!ref.ok()) return Fail(ref.status());
    health = std::move(ref).value();
    std::cout << "calibrated health reference (" << health->count
              << " windows, " << core::kHealthBins
              << " histogram bins, mean dispersion "
              << health->mean_dispersion << ")\n";
  }

  if (args.Has("scores")) {
    std::ofstream out(args.Get("scores", ""));
    if (!out) return Fail(Status::IOError("cannot write scores file"));
    out.precision(std::numeric_limits<double>::max_digits10);
    for (const double s : train_scores.value()) out << s << "\n";
  }

  // --- Persist -------------------------------------------------------------
  const std::string output = args.Get("output", "");
  if (Status s = core::SaveEnsemble(ensemble, output, threshold.value(),
                                    spot ? &*spot : nullptr,
                                    health ? &*health : nullptr);
      !s.ok()) {
    return Fail(s);
  }
  std::ifstream artifact(output, std::ios::binary | std::ios::ate);
  std::cout << "wrote artifact " << output << " (" << artifact.tellg()
            << " bytes, format v" << core::kArtifactVersion << ")\n";
  return 0;
}
