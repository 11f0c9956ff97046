// eval_gauntlet: the end-to-end accuracy gauntlet (docs/evaluation.md).
//
// Runs a deterministic, seeded matrix of scenarios — paper-style synthetic
// stand-ins (ECG/SMD/SMAP), per-injector isolation scenarios, univariate and
// variable-length regimes, optional CSV-loaded real datasets — scoring
// CAE-Ensemble head-to-head against every baseline detector, and writes the
// machine-readable EVAL JSON that scripts/check_eval_regression.py gates CI
// on. Same flags + same seeds => byte-identical JSON (timing fields
// excepted; pass --no-timing to drop them entirely).
//
//   eval_gauntlet --output EVAL_9.json
//   eval_gauntlet --scale 0.3 --models 3 --epochs 4 --output eval.json
//   eval_gauntlet --scenarios paper --detectors LOF,CAE-Ensemble
//   eval_gauntlet --csv ecg-real:train.csv:test.csv --output eval.json

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli_util.h"
#include "eval/gauntlet.h"
#include "eval/table.h"

using namespace caee;

namespace {

const char kUsage[] =
    "usage: eval_gauntlet [--output EVAL.json]\n"
    "  matrix:    --scale S (default 0.3; series-length multiplier)\n"
    "             --seed N (default 7)\n"
    "             --scenarios A,B    substring filter on scenario names\n"
    "             --csv NAME:TRAIN:TEST  append a CSV-loaded scenario\n"
    "             --list             print the scenario names and exit\n"
    "  detectors: --detectors A,B (default: all 12; also accepts the\n"
    "             CAE-Ensemble/<change> ablation variants listed in\n"
    "             docs/evaluation.md)\n"
    "             --models M --epochs E --window W --batch B --layers L\n"
    "             --embed-dim D --max-train-windows N --lr R --lambda F\n"
    "             --beta F --threads T\n"
    "  spot:      --spot-level L (default 0.9) --spot-q Q (default 0.01)\n"
    "             --spot-peaks N (default 64)\n"
    "  output:    --output PATH      write the EVAL JSON document\n"
    "             --no-timing        omit fit/score timing fields (the\n"
    "                                remaining document is byte-stable)\n"
    "             --quiet            no per-scenario tables on stdout\n";

int Fail(const Status& status) {
  std::cerr << "eval_gauntlet: " << status << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.RejectUnknown(
      {"output", "scale", "seed", "scenarios", "csv", "list", "detectors",
       "models", "epochs", "window", "batch", "layers", "embed-dim",
       "max-train-windows", "lr", "lambda", "beta", "threads", "spot-level",
       "spot-q", "spot-peaks", "no-timing", "quiet", "help"},
      kUsage);
  if (args.Has("help")) {
    std::cerr << kUsage;
    return 0;
  }

  const double scale = args.GetDouble("scale", 0.3);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  if (scale <= 0.0 || scale > 4.0) {
    std::cerr << "eval_gauntlet: --scale must be in (0, 4]\n";
    return 2;
  }

  // --- Scenario matrix -----------------------------------------------------
  std::vector<eval::ScenarioSpec> specs =
      eval::DefaultScenarioMatrix(scale, seed);
  if (args.Has("csv")) {
    // NAME:TRAIN:TEST (train unlabeled, test with a trailing label column).
    const std::string spec_str = args.Get("csv", "");
    const size_t c1 = spec_str.find(':');
    const size_t c2 = c1 == std::string::npos ? c1 : spec_str.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      std::cerr << "eval_gauntlet: --csv needs NAME:TRAIN:TEST\n";
      return 2;
    }
    eval::ScenarioSpec csv;
    csv.name = "csv/" + spec_str.substr(0, c1);
    csv.group = "csv";
    csv.train_csv = spec_str.substr(c1 + 1, c2 - c1 - 1);
    csv.test_csv = spec_str.substr(c2 + 1);
    specs.push_back(std::move(csv));
  }
  if (args.Has("scenarios")) {
    const std::vector<std::string> filters = args.GetList("scenarios");
    std::vector<eval::ScenarioSpec> kept;
    for (auto& spec : specs) {
      for (const auto& f : filters) {
        if (spec.name.find(f) != std::string::npos) {
          kept.push_back(std::move(spec));
          break;
        }
      }
    }
    if (kept.empty()) {
      std::cerr << "eval_gauntlet: --scenarios matched nothing\n";
      return 2;
    }
    specs = std::move(kept);
  }
  if (args.Has("list")) {
    for (const auto& spec : specs) {
      std::cout << spec.name << " (" << spec.group << ")\n";
    }
    return 0;
  }

  // --- Detector sizing -----------------------------------------------------
  eval::GauntletConfig config;
  eval::SuiteConfig& s = config.suite;
  s.window = args.GetInt("window", 8);
  s.embed_dim = args.GetInt("embed-dim", 32);
  s.cae_layers = args.GetInt("layers", 2);
  s.num_models = args.GetInt("models", 8);
  s.epochs_per_model = args.GetInt("epochs", 6);
  s.rnn_hidden = 16;
  s.rnn_epochs = 2;
  s.ae_epochs = 8;
  s.batch_size = args.GetInt("batch", 32);
  s.max_train_windows = args.GetInt("max-train-windows", 512);
  s.lr = static_cast<float>(args.GetDouble("lr", 2e-3));
  s.lambda = static_cast<float>(args.GetDouble("lambda", 0.5));
  s.beta = static_cast<float>(args.GetDouble("beta", 0.5));
  s.num_threads = args.GetInt("threads", 0);
  s.seed = seed;
  config.detectors = args.GetList("detectors");
  config.spot_level = args.GetDouble("spot-level", config.spot_level);
  config.spot_q = args.GetDouble("spot-q", config.spot_q);
  config.spot_peaks = args.GetInt("spot-peaks", config.spot_peaks);

  const std::string fingerprint = eval::ConfigFingerprint(specs, config);
  const bool quiet = args.Has("quiet");
  if (!quiet) {
    std::cout << "=== eval_gauntlet: " << specs.size()
              << " scenarios (scale=" << scale << ", seed=" << seed
              << ", M=" << s.num_models << ", epochs=" << s.epochs_per_model
              << ", fingerprint=" << fingerprint << ") ===\n\n";
  }

  // --- Run -----------------------------------------------------------------
  std::vector<eval::ScenarioResult> results;
  std::map<std::string, std::vector<double>> paper_pr;  // detector -> PR-AUCs
  for (const auto& spec : specs) {
    auto result = eval::RunScenario(spec, config);
    if (!result.ok()) return Fail(result.status());
    if (!quiet) {
      eval::TablePrinter table({"Detector", "P", "R", "F1", "PR-AUC",
                                "ROC-AUC", "F1@thr", "F1@spot"});
      for (const auto& cell : result->cells) {
        table.AddRow({cell.detector, eval::FormatDouble(cell.report.precision),
                      eval::FormatDouble(cell.report.recall),
                      eval::FormatDouble(cell.report.f1),
                      eval::FormatDouble(cell.report.pr_auc),
                      eval::FormatDouble(cell.report.roc_auc),
                      eval::FormatDouble(cell.at_threshold.f1),
                      cell.has_spot ? eval::FormatDouble(cell.spot.f1) : "-"});
      }
      std::cout << "--- " << result->name << " (dims=" << result->dims
                << ", train=" << result->train_length
                << ", test=" << result->test_length << ", outlier ratio="
                << eval::FormatDouble(result->outlier_ratio) << ") ---\n"
                << table.ToString() << "\n";
    }
    if (result->group == "paper") {
      for (const auto& cell : result->cells) {
        paper_pr[cell.detector].push_back(cell.report.pr_auc);
      }
    }
    results.push_back(std::move(*result));
  }

  // Paper-group champion summary: the acceptance property the committed
  // baseline must show (checked by check_eval_regression.py).
  if (!quiet && !paper_pr.empty()) {
    eval::TablePrinter table({"Detector", "mean PR-AUC (paper group)"});
    std::string best_name;
    double best = -1.0;
    for (const auto& [name, prs] : paper_pr) {
      double mean = 0.0;
      for (double v : prs) mean += v;
      mean /= static_cast<double>(prs.size());
      table.AddRow({name, eval::FormatDouble(mean)});
      if (mean > best) {
        best = mean;
        best_name = name;
      }
    }
    std::cout << "--- Paper-group summary ---\n"
              << table.ToString() << "best: " << best_name << " ("
              << eval::FormatDouble(best) << ")\n\n";
  }

  // --- Emit ----------------------------------------------------------------
  const std::string json = eval::GauntletJson(
      results, fingerprint, seed, scale, !args.Has("no-timing"));
  if (args.Has("output")) {
    std::ofstream out(args.Get("output", ""));
    if (!out) {
      return Fail(Status::IOError("cannot write " + args.Get("output", "")));
    }
    out << json;
    if (!out) return Fail(Status::IOError("write failed"));
    if (!quiet) {
      std::cout << "wrote " << args.Get("output", "") << " (" << json.size()
                << " bytes, " << results.size() << " scenarios)\n";
    }
  } else if (quiet) {
    std::cout << json;
  }
  return 0;
}
