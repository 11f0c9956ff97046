// caee_serve as a process: what only the binary itself can show.
//
// `caee_serve --encode-frames` turns operator text into request frames. A
// line whose request cannot fit one frame (framing::kMaxFrameBytes) must
// end the run with an error naming the line and exit code 1 — it must not
// trip a CHECK and abort the process (exit 134), since no text line may
// crash caee_serve.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifdef CAEE_SERVE_BIN

struct Outcome {
  int exit_code = -1;  // -1 unless the process exited normally
  std::string err;
};

// Feed `text` to `caee_serve --encode-frames` and collect its exit code
// and stderr.
Outcome EncodeFrames(const std::string& name, const std::string& text) {
  const std::string base = ::testing::TempDir() + "/serve_cli_" + name;
  {
    std::ofstream in(base + ".txt", std::ios::binary);
    in << text;
  }
  const std::string command = std::string(CAEE_SERVE_BIN) +
                              " --encode-frames --input '" + base +
                              ".txt' > /dev/null 2> '" + base + ".err'";
  const int status = std::system(command.c_str());
  Outcome run;
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  std::ifstream err(base + ".err");
  std::stringstream ss;
  ss << err.rdbuf();
  run.err = ss.str();
  return run;
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

#else

TEST(ServeCliTest, NeedsTheCaeeServeBinary) {
  GTEST_SKIP() << "caee_serve is not built (CAEE_BUILD_EXAMPLES=OFF)";
}

#endif

}  // namespace
