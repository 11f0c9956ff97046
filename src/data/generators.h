// Synthetic multivariate time-series generators, one profile per dataset the
// paper evaluates on (ECG, SMD, MSL, SMAP, WADI). The real datasets are not
// shipped with this repository; the stand-ins let every test, bench and CI
// run work offline and deterministically, and real data comes in through
// ts::ReadCsv (caee_train --input). Each profile matches the original's
// dimensionality, outlier ratio, anomaly style, and train/test protocol;
// lengths are scaled to laptop CPU budgets via the `scale` parameter.

#ifndef CAEE_DATA_GENERATORS_H_
#define CAEE_DATA_GENERATORS_H_

#include <string>

#include "data/injectors.h"
#include "ts/time_series.h"

namespace caee {
namespace data {

/// \brief Parameters of the base (anomaly-free) signal and the anomaly
/// injection pass.
struct SyntheticProfile {
  std::string name;
  int64_t dims = 2;
  int64_t train_length = 2000;
  int64_t test_length = 2000;
  double outlier_ratio = 0.05;

  // Base-signal character.
  int64_t num_latents = 3;       // shared latent factors (cross-dim structure)
  double latent_weight = 0.6;    // how strongly dims load on latents
  double period_base = 50.0;     // fundamental period of latent sinusoids
  int harmonics = 2;             // per-dim harmonic richness
  double noise = 0.1;            // i.i.d. Gaussian noise level
  double level_step_prob = 0.0;  // per-step chance of a legitimate level step
  double drift = 0.0;            // slow linear drift per 1000 steps
  double flat_fraction = 0.0;    // fraction of near-constant dims (MSL-style)
  // Discrete operating modes (spacecraft command modes, server deployment
  // states, demand regimes): a global Markov chain switches the per-dim
  // offset/amplitude regime. Makes the inlier density multi-modal — the
  // property that defeats per-observation density estimators on the real
  // MSL/SMAP data — while temporal models can still use local context.
  int64_t num_modes = 1;         // 1 = off
  double mode_period = 300.0;    // expected mode duration in observations

  AnomalyMix mix;
  bool train_equals_test = false;  // ECG protocol: one labelled series
  uint64_t seed = 42;
};

/// \brief Generate the base signal + labelled test anomalies for a profile.
ts::Dataset Generate(const SyntheticProfile& profile);

// Paper dataset profiles. `scale` in (0, 1] shrinks series lengths
// proportionally (1.0 = the default laptop-scale lengths below, already far
// smaller than the originals).
SyntheticProfile EcgProfile(double scale = 1.0, uint64_t seed = 42);
SyntheticProfile SmdProfile(double scale = 1.0, uint64_t seed = 42);
SyntheticProfile MslProfile(double scale = 1.0, uint64_t seed = 42);
SyntheticProfile SmapProfile(double scale = 1.0, uint64_t seed = 42);
SyntheticProfile WadiProfile(double scale = 1.0, uint64_t seed = 42);

}  // namespace data
}  // namespace caee

#endif  // CAEE_DATA_GENERATORS_H_
