// caee_repair: the offline consumer of the drift -> repair escalation
// (docs/operations.md).
//
// When caee_serve's drift signal reports that the live exceed rate has
// drifted away from the SPOT calibration baseline, an operator (or a
// supervisor script) runs this tool on a CSV of recently served
// observations. It scores them with the CURRENT artifact, repairs the
// flagged outliers (core/repair.h — the paper's Sec. 6 cleaning
// direction), recalibrates on the cleaned series, and writes a NEW
// artifact with the same weights but fresh calibration. It recalibrates
// the static threshold always, the SPOT init params when the artifact
// carries them, and the model-health reference when the artifact carries
// one:
//
//   caee_repair --model model.caee --input recent.csv
//               --output model_repaired.caee
//   # then, at the still-running server's stdin:
//   reload,model_repaired.caee
//
// The weights are untouched — window, input width, SPOT peak capacity and
// the presence of the SPOT and health sections are exactly those of the
// input artifact, so ServingEngine::ReloadArtifact's compatibility checks
// accept the output on the engine serving its input, `--health` included.
// A `--health` engine still canary-checks it (docs/operations.md), against
// the recalibrated reference. The write is crash-atomic (tmp + fsync +
// rename; docs/persistence.md): --output may even name the live artifact
// path, a reader never observes a half-written file.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "core/ensemble.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/repair.h"
#include "core/spot.h"
#include "core/threshold.h"
#include "ts/csv.h"

using namespace caee;

namespace {

const char kUsage[] =
    "usage: caee_repair --model model.caee --input recent.csv\n"
    "                   --output repaired.caee\n"
    "                   [--labels] [--strategy interpolate|previous|mean]\n"
    "                   [--topk-percent P] [--threads T]\n"
    "  Scores --input with the artifact, repairs the observations the\n"
    "  artifact's threshold flags (non-finite scores always flag),\n"
    "  recalibrates the threshold — and the SPOT init params and the\n"
    "  health reference, when the artifact carries them — on the cleaned\n"
    "  series, and atomically writes a new artifact with the SAME\n"
    "  weights. Feed `reload,<output>` to the caee_serve running the\n"
    "  input artifact (docs/operations.md).\n"
    "  --strategy picks the repair rule (default interpolate);\n"
    "  --topk-percent the recalibration quantile (default 5);\n"
    "  --labels strips a trailing label column from --input.\n";

int Fail(const Status& status) {
  std::cerr << "caee_repair: " << status << "\n";
  return 1;
}

StatusOr<core::RepairStrategy> ParseStrategy(const std::string& name) {
  if (name == "interpolate") return core::RepairStrategy::kInterpolate;
  if (name == "previous") return core::RepairStrategy::kPrevious;
  if (name == "mean") return core::RepairStrategy::kMean;
  return Status::InvalidArgument(
      "unknown --strategy '" + name +
      "' (expected interpolate, previous, or mean)");
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.RejectUnknown({"model", "input", "output", "labels", "strategy",
                      "topk-percent", "threads", "help"},
                     kUsage);
  if (args.Has("help")) {
    std::cerr << kUsage;
    return 0;
  }
  if (!args.Has("model") || !args.Has("input") || !args.Has("output")) {
    std::cerr << kUsage;
    return 2;
  }

  auto strategy = ParseStrategy(args.Get("strategy", "interpolate"));
  if (!strategy.ok()) return Fail(strategy.status());
  const double topk_percent = args.GetDouble("topk-percent", 5.0);

  // --- The current artifact ------------------------------------------------
  auto loaded = core::LoadEnsemble(args.Get("model", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  core::CaeEnsemble& ensemble = *loaded->ensemble;
  ensemble.set_num_threads(args.GetInt("threads", 0));
  std::cerr << "loaded ensemble: " << ensemble.num_models() << " models, "
            << "window " << ensemble.config().window << ", "
            << ensemble.input_dim() << " dims"
            << (loaded->spot ? ", spot-calibrated" : "") << "\n";

  // --- Recent observations -------------------------------------------------
  auto series_or = ts::ReadCsv(args.Get("input", ""), args.Has("labels"));
  if (!series_or.ok()) return Fail(series_or.status());
  ts::TimeSeries series = std::move(series_or).value();
  if (series.dims() != ensemble.input_dim()) {
    return Fail(Status::InvalidArgument(
        "--input has " + std::to_string(series.dims()) +
        " dims but the artifact serves " +
        std::to_string(ensemble.input_dim())));
  }
  if (series.length() < ensemble.config().window) {
    return Fail(Status::InvalidArgument(
        "--input has " + std::to_string(series.length()) +
        " observations; need at least the window (" +
        std::to_string(ensemble.config().window) + ")"));
  }

  // --- Score and flag with the CURRENT calibration -------------------------
  auto scores = ensemble.Score(series);
  if (!scores.ok()) return Fail(scores.status());
  std::optional<double> flag_threshold = loaded->threshold;
  if (!flag_threshold.has_value()) {
    // A thresholdless artifact (kStatic never flags) still drifts; flag
    // against a fresh top-k cut of THESE scores so the repair has teeth.
    auto calibrated = core::CalibrateThreshold(
        scores.value(), {core::ThresholdStrategy::kTopK, topk_percent});
    if (!calibrated.ok()) return Fail(calibrated.status());
    flag_threshold = calibrated.value();
    std::cerr << "artifact has no threshold; flagging against a fresh top-"
              << topk_percent << "% cut " << *flag_threshold << "\n";
  }
  const std::vector<int> flags =
      core::ApplyThreshold(scores.value(), *flag_threshold);

  // --- Repair --------------------------------------------------------------
  auto repaired = core::RepairOutliers(series, flags, strategy.value());
  if (!repaired.ok()) return Fail(repaired.status());
  std::cerr << "repaired " << repaired->repaired_count << " of "
            << series.length() << " observations ("
            << args.Get("strategy", "interpolate") << ")\n";

  // --- Recalibrate on the cleaned scores -----------------------------------
  auto clean_scores = ensemble.Score(repaired->series);
  if (!clean_scores.ok()) return Fail(clean_scores.status());
  auto threshold = core::CalibrateThreshold(
      clean_scores.value(), {core::ThresholdStrategy::kTopK, topk_percent});
  if (!threshold.ok()) return Fail(threshold.status());
  std::cerr << "recalibrated threshold (top " << topk_percent << "%): "
            << threshold.value()
            << (loaded->threshold
                    ? " (was " + std::to_string(*loaded->threshold) + ")"
                    : "")
            << "\n";

  // SPOT recalibration reuses the artifact's own knobs — in particular the
  // peak capacity, which sizes the engine's per-stream slabs and is
  // validated as invariant across hot-swaps.
  std::optional<core::SpotInit> spot;
  if (loaded->spot.has_value()) {
    auto init =
        core::CalibrateSpot(clean_scores.value(), loaded->spot->config);
    if (!init.ok()) return Fail(init.status());
    spot = std::move(init).value();
    std::cerr << "recalibrated SPOT: t " << spot->t << " (was "
              << loaded->spot->t << "), z " << spot->z << " (was "
              << loaded->spot->z << "), " << spot->peaks.size()
              << " seed peaks\n";
  }

  // A `--health` server refuses a candidate without a health section, and
  // its canary judges live traffic against the candidate's own reference,
  // so the reference is recalibrated on the cleaned series too.
  std::optional<core::HealthRef> health;
  if (loaded->health.has_value()) {
    auto ref = core::CalibrateHealthRef(ensemble, repaired->series);
    if (!ref.ok()) return Fail(ref.status());
    health = std::move(ref).value();
    std::cerr << "recalibrated health reference (" << health->count
              << " windows, mean dispersion " << health->mean_dispersion
              << ", was " << loaded->health->mean_dispersion << ")\n";
  }

  // --- Persist (crash-atomic; docs/persistence.md) -------------------------
  const std::string output = args.Get("output", "");
  if (Status s = core::SaveEnsemble(ensemble, output, threshold.value(),
                                    spot ? &*spot : nullptr,
                                    health ? &*health : nullptr);
      !s.ok()) {
    return Fail(s);
  }
  std::ifstream artifact(output, std::ios::binary | std::ios::ate);
  std::cerr << "wrote repaired artifact " << output << " ("
            << artifact.tellg() << " bytes); hot-swap it with "
            << "`reload," << output << "`\n";
  return 0;
}
