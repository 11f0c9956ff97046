// Shared helpers for the table/figure reproduction binaries: flag parsing
// and the default CPU-budget sizing. Every binary accepts:
//   --scale=<f>     dataset length scale (default sized for a 2-core laptop)
//   --models=<n>    ensemble size M
//   --epochs=<n>    epochs per basic model
//   --threads=<n>   parallel engine workers (0 = hardware, 1 = sequential)
//   --seed=<n>
// plus bench-specific flags documented in each main(). Flags are parsed by
// examples/cli_util.h, the parser the command-line tools use: `--k=v` and
// `--k v` both work, and an unknown flag or a malformed number exits 2.

#ifndef CAEE_BENCH_BENCH_UTIL_H_
#define CAEE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.h"
#include "eval/detector.h"

namespace caee {
namespace bench {

struct Flags {
  double scale = 0.25;
  int64_t models = 4;
  int64_t epochs = 4;
  int64_t threads = 0;  // parallel engine workers (0 = hardware)
  uint64_t seed = 7;
  double lambda = -1.0;  // < 0: use the per-dataset Table 2 value
  double beta = -1.0;    // < 0: use the per-dataset Table 2 value
  std::vector<std::string> datasets;   // empty: bench default
  std::vector<std::string> detectors;  // empty: bench default

  /// \brief Parse the common flags. `extra` names bench-specific flags,
  /// which the bench reads back with its own cli::Args.
  static Flags Parse(int argc, char** argv,
                     const std::vector<std::string>& extra = {}) {
    const cli::Args args(argc, argv);
    std::vector<std::string> known = {
        "scale", "models", "epochs",   "threads",   "seed",
        "lambda", "beta",  "datasets", "detectors", "help"};
    std::string usage =
        "flags: --scale=F --models=N --epochs=N --threads=N --seed=N "
        "--lambda=F --beta=F --datasets=A,B --detectors=A,B";
    for (const auto& name : extra) {
      known.push_back(name);
      usage += " --" + name + "=V";
    }
    usage += "\n";
    args.RejectUnknown(known, usage);
    if (args.Has("help")) {
      std::cout << usage;
      std::exit(0);
    }
    Flags f;
    f.scale = args.GetDouble("scale", f.scale);
    f.models = args.GetInt("models", f.models);
    f.epochs = args.GetInt("epochs", f.epochs);
    f.threads = args.GetInt("threads", f.threads);
    f.seed = static_cast<uint64_t>(
        args.GetInt("seed", static_cast<int64_t>(f.seed)));
    f.lambda = args.GetDouble("lambda", f.lambda);
    f.beta = args.GetDouble("beta", f.beta);
    f.datasets = args.GetList("datasets");
    f.detectors = args.GetList("detectors");
    return f;
  }
};

/// \brief Detector sizing derived from the common flags (CPU-budget default).
inline eval::SuiteConfig MakeSuite(const Flags& f) {
  eval::SuiteConfig s;
  s.window = 16;
  s.embed_dim = 0;  // auto-size from dims
  s.cae_layers = 2;
  s.num_models = f.models;
  s.epochs_per_model = f.epochs;
  s.rnn_hidden = 16;
  s.rnn_epochs = 2;
  s.ae_epochs = 8;
  s.batch_size = 32;  // more optimiser steps per epoch at CPU scale
  s.lr = 2e-3f;
  s.max_train_windows = 256;
  s.num_threads = f.threads;
  s.seed = f.seed;
  return s;
}

}  // namespace bench
}  // namespace caee

#endif  // CAEE_BENCH_BENCH_UTIL_H_
