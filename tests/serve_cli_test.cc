// caee_serve as a process: what only the binary itself can show.
//
// `caee_serve --encode-frames` turns operator text into request frames. A
// line whose request cannot fit one frame (framing::kMaxFrameBytes) must
// end the run with an error naming the line and exit code 1 — it must not
// trip a CHECK and abort the process (exit 134), since no text line may
// crash caee_serve.
//
// A monitor threshold flag must be a finite number > 0: `nan` or `inf`
// would arm a signal that can never fire, so the run is refused with an
// error naming the flag.
//
// `caee_repair`'s output must hot-swap into the server that runs its input
// artifact, `--health` included, as the drift advisory promises.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "test_util.h"

namespace caee {
namespace {

#ifdef CAEE_SERVE_BIN

struct Outcome {
  int exit_code = -1;  // -1 unless the process exited normally
  std::string err;
};

// Feed `text` to `caee_serve --encode-frames` and collect its exit code
// and stderr.
std::string Base(const std::string& name) {
  return ::testing::TempDir() + "/serve_cli_" + name;
}

// Run `command` with stdout discarded and stderr sent to `base`.err, and
// collect its exit code and stderr.
Outcome RunCommand(const std::string& base, const std::string& command) {
  const int status = std::system(
      (command + " > /dev/null 2> '" + base + ".err'").c_str());
  Outcome run;
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  std::ifstream err(base + ".err");
  std::stringstream ss;
  ss << err.rdbuf();
  run.err = ss.str();
  return run;
}

// Run caee_serve with `args` on the input file `base`.txt.
Outcome RunServe(const std::string& base, const std::string& args) {
  return RunCommand(base, std::string(CAEE_SERVE_BIN) + " " + args +
                              " --input '" + base + ".txt'");
}

Outcome EncodeFrames(const std::string& name, const std::string& text) {
  const std::string base = Base(name);
  {
    std::ofstream in(base + ".txt", std::ios::binary);
    in << text;
  }
  return RunServe(base, "--encode-frames");
}

TEST(ServeCliTest, EncodeFramesRejectsAReloadPathThatCannotFitOneFrame) {
  const Outcome run = EncodeFrames(
      "reload", "open,1\nreload," + std::string(1u << 20, 'a') + "\n");
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("line 2:"), std::string::npos) << run.err;
}

TEST(ServeCliTest, EncodeFramesRejectsAnObservationThatCannotFitOneFrame) {
  std::string line = "0";
  for (int i = 0; i < 270000; ++i) line += ",1";
  const Outcome run = EncodeFrames("observe", "open,0\n\n" + line + "\n");
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("line 3:"), std::string::npos) << run.err;
}

TEST(ServeCliTest, EncodeFramesAcceptsEveryRequestLine) {
  const Outcome run = EncodeFrames(
      "valid", "open,1\nopen,2,spot\n1,0.5,1.5\nreload,m.caee\nhealth\n"
               "close,1\n");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.err, "");
}

// A SPOT- and health-calibrated artifact, and one SPOT stream of 80 rows
// for caee_serve to serve with it.
class ServeCliMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::EnsembleConfig config;
    config.cae.embed_dim = 6;
    config.cae.num_layers = 1;
    config.window = 5;
    config.num_models = 2;
    config.epochs_per_model = 2;
    config.batch_size = 32;
    config.max_train_windows = 64;
    const ts::TimeSeries train = testutil::PlantedSeries(220, 2, 1);
    core::CaeEnsemble ensemble(config);
    CAEE_CHECK(ensemble.Fit(train).ok());
    auto scores = ensemble.Score(train);
    CAEE_CHECK(scores.ok());
    core::SpotConfig spot_config;
    spot_config.level = 0.8;
    spot_config.q = 0.05;
    spot_config.peak_capacity = 16;
    auto spot = core::CalibrateSpot(scores.value(), spot_config);
    CAEE_CHECK(spot.ok());
    auto health = core::CalibrateHealthRef(
        scores.value(), std::vector<double>(scores.value().size(), 0.25));
    CAEE_CHECK(health.ok());
    CAEE_CHECK(core::SaveEnsemble(ensemble, Base("model") + ".caee",
                                  std::nullopt, &spot.value(),
                                  &health.value())
                   .ok());

    WriteSession("session", "");
  }

  // One SPOT stream over the 80 rows in `session`.txt, with `reload_line`
  // after row 60 when it is not empty.
  static void WriteSession(const std::string& session,
                           const std::string& reload_line) {
    const ts::TimeSeries stream = testutil::PlantedSeries(80, 2, 5);
    std::ofstream out(Base(session) + ".txt");
    out << "open,0,spot\n";
    for (int64_t t = 0; t < stream.length(); ++t) {
      out << "0," << stream.value(t, 0) << "," << stream.value(t, 1) << "\n";
      if (t == 59 && !reload_line.empty()) out << reload_line << "\n";
    }
    out << "close,0\n";
  }

  static Outcome Serve(const std::string& flags) {
    return RunServe(Base("session"), "--model '" + Base("model") +
                                         ".caee' --streams --flush-ms 0 " +
                                         flags);
  }
};

TEST_F(ServeCliMonitorTest, RefusesNonFiniteMonitorThresholds) {
  const struct {
    const char* flags;
    const char* flag;
  } kCases[] = {
      {"--drift-threshold nan", "--drift-threshold"},
      {"--drift-threshold inf", "--drift-threshold"},
      {"--drift-threshold 0.5 --drift-clear nan", "--drift-clear"},
      {"--health --health-shift nan", "--health-shift"},
      {"--health --health-shift inf", "--health-shift"},
      {"--health --health-dispersion nan", "--health-dispersion"},
      {"--health --health-nonfinite nan", "--health-nonfinite"},
      {"--health --health-alert nan", "--health-alert"},
  };
  for (const auto& c : kCases) {
    const Outcome run = Serve(c.flags);
    EXPECT_NE(run.exit_code, 0) << c.flags << "\n" << run.err;
    EXPECT_NE(run.err.find(std::string(c.flag) + " must be a finite number"),
              std::string::npos)
        << c.flags << "\n"
        << run.err;
  }
}

// The finite counterparts serve, and each prints its one advisory in the
// same form: drift is the monitor's fifth signal.
TEST_F(ServeCliMonitorTest, FiniteThresholdsServeAndAlert) {
  const Outcome drift = Serve("--drift-threshold 0.001");
  EXPECT_EQ(drift.exit_code, 0) << drift.err;
  EXPECT_NE(drift.err.find("health alert (data-drift): drift "),
            std::string::npos)
      << drift.err;
  const Outcome shift = Serve("--health --health-shift 0.01");
  EXPECT_EQ(shift.exit_code, 0) << shift.err;
  EXPECT_NE(shift.err.find("health alert (data-drift): score-shift "),
            std::string::npos)
      << shift.err;
}

// The remedy the drift advisory names: repair the recently served rows
// with caee_repair, then reload the result into the running server. Under
// --health the reload needs a health section, and the canary judges the
// served windows against it.
TEST_F(ServeCliMonitorTest, RepairedArtifactReloadsUnderHealth) {
  const ts::TimeSeries stream = testutil::PlantedSeries(80, 2, 5);
  {
    std::ofstream recent(Base("recent") + ".csv");
    for (int64_t t = 0; t < stream.length(); ++t) {
      recent << stream.value(t, 0) << "," << stream.value(t, 1) << "\n";
    }
  }
  const std::string repaired = Base("repaired") + ".caee";
  const Outcome repair = RunCommand(
      Base("repair"), std::string(CAEE_REPAIR_BIN) + " --model '" +
                          Base("model") + ".caee' --input '" + Base("recent") +
                          ".csv' --output '" + repaired + "'");
  ASSERT_EQ(repair.exit_code, 0) << repair.err;
  EXPECT_NE(repair.err.find("recalibrated health reference"),
            std::string::npos)
      << repair.err;

  WriteSession("swap", "reload," + repaired);
  const Outcome run = RunServe(
      Base("swap"),
      "--model '" + Base("model") + ".caee' --streams --flush-ms 0 --health");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.err.find("reloaded: now serving generation 2"),
            std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("generation 2 live after 1 reload(s), 0 rejected"),
            std::string::npos)
      << run.err;
}

#else

TEST(ServeCliTest, NeedsTheCaeeServeBinary) {
  GTEST_SKIP() << "caee_serve is not built (CAEE_BUILD_EXAMPLES=OFF)";
}

#endif

}  // namespace
}  // namespace caee
