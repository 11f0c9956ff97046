// caee_bench: the repository's one end-to-end benchmark.
//
//   caee_bench --workload fleet|paper|lifecycle --seed N --trace 0|1
//              --results DIR
//
// A run measures for kRunSeconds, the one length its bounds were
// calibrated at. --trace 0 drives the real caee_serve and caee_train
// binaries and prints the end-to-end metrics; --trace 1 replays the same
// traffic in-process
// and prints the per-layer table. Either way every metric is printed as a
// `workload metric value unit` line, and the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check makes the exit code non-zero. benchmark/run.sh builds
// this and the binaries it drives; benchmark/README.md explains the
// workloads and every metric.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

using namespace caee_bench;

namespace {

// Each run must end within 180 s; the watchdog ends it earlier, killing
// every child, rather than let a hung server run on.
constexpr unsigned kWatchdogSeconds = 170;
// On a virtual machine left idle for a while, the host schedules the vCPUs
// sluggishly for tens of seconds after work resumes: such a run measured
// double the set-up time and generator stalls of milliseconds. Keeping
// every core busy this long first makes the run start from the state the
// rest of it (and every back-to-back run) is measured in.
constexpr double kWarmUpSeconds = 3.0;

void WarmUp() {
  const int64_t end = NowNs() + static_cast<int64_t>(kWarmUpSeconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([end] {
      while (NowNs() < end) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void OnWatchdog(int) {
  KillAllChildren();
  const char msg[] = "caee_bench: watchdog expired, children killed\n";
  ssize_t ignored = write(2, msg, sizeof(msg) - 1);
  (void)ignored;
  _exit(3);
}

int Usage() {
  std::cerr << "usage: caee_bench --workload fleet|paper|lifecycle --seed N "
               "--trace 0|1 --results DIR\n";
  return 2;
}

/// \brief Train (once per caee_train build and flag set) the workload's
/// served artifact and a byte-identical copy to reload.
bool EnsureArtifact(RunContext* ctx) {
  const ArtifactSpec& spec = *ctx->workload->artifact;
  const std::string binary = ReadFileBytes(ctx->train_bin);
  if (binary.empty()) return false;
  const std::vector<std::string> train_flags =
      TrainFlags(spec, spec.scale, spec.epochs);
  std::string flags;
  for (const std::string& f : train_flags) flags += f + " ";
  const std::string base = ctx->results_dir + "/artifacts/" + spec.key + "-" +
                           HashHex(binary) + "-" + HashHex(flags);
  ctx->artifact = base + ".caee";
  ctx->artifact_copy = base + ".copy.caee";
  struct stat st;
  if (stat(ctx->artifact.c_str(), &st) != 0) {
    std::vector<std::string> argv = {ctx->train_bin};
    argv.insert(argv.end(), train_flags.begin(), train_flags.end());
    for (const std::string& f :
         {std::string("--seed"), std::to_string(kArtifactSeed),
          std::string("--threads"), std::to_string(kTrainThreads),
          std::string("--output"), ctx->artifact}) {
      argv.push_back(f);
    }
    if (RunCommand(argv, ctx->results_dir + "/logs/artifact-" + spec.key +
                             ".log") != 0) {
      return false;
    }
  }
  if (stat(ctx->artifact_copy.c_str(), &st) != 0) {
    const std::string tmp = ctx->artifact_copy + ".tmp";
    if (!WriteFileBytes(tmp, ReadFileBytes(ctx->artifact)) ||
        std::rename(tmp.c_str(), ctx->artifact_copy.c_str()) != 0) {
      return false;
    }
  }
  return true;
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, results;
  RunContext ctx;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--results") {
      results = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  ctx.workload = FindWorkload(workload);
  if (ctx.workload == nullptr || trace < 0 || results.empty()) {
    return Usage();
  }
  ctx.results_dir = results;
  ctx.serve_bin = CAEE_SERVE_BIN;
  ctx.train_bin = CAEE_TRAIN_BIN;
  for (const char* sub : {"", "/logs", "/tmp", "/artifacts"}) {
    mkdir((results + sub).c_str(), 0755);
  }

  // The generator sleeps to each due time; the default 50 µs timer slack
  // would add that much to every wake-up.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, OnWatchdog);
  alarm(kWatchdogSeconds);

  std::printf("# caee_bench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u serve_threads=%lld train_threads=%lld "
              "client_threads=2\n",
              ctx.workload->name, static_cast<unsigned long long>(ctx.seed),
              kRunSeconds, trace, std::thread::hardware_concurrency(),
              static_cast<long long>(kServeThreads),
              static_cast<long long>(kTrainThreads));
  std::fflush(stdout);

  RunResult result;
  if (!EnsureArtifact(&ctx)) {
    Fail(&result, "cannot train the served artifact");
  } else {
    WarmUp();
    result = trace == 1 ? RunTrace(ctx) : RunServing(ctx);
  }

  std::string metrics;
  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      Fail(&result, "metric " + m.name + " was not measured");
      m.value = 0.0;
    }
    std::printf("%s %s %s %s\n", ctx.workload->name, m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" +
      metrics + "}}";
  const std::string file = results + "/" + ctx.workload->name + "-" +
                           std::to_string(ctx.seed) +
                           (trace == 1 ? "-trace" : "") + ".json";
  WriteFileBytes(file, line + "\n");
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
