// Shared pieces of the caee_bench harness: the workload table, the clock,
// the seeded traffic model (which streams exist, what each one replays,
// when each observation is due), request scripts, statistics, and child
// processes. Both halves of the harness use them: serving.cc drives the
// real caee_serve / caee_train binaries for the end-to-end metrics, and
// trace.cc replays the same traffic in-process for the per-layer table.

#ifndef CAEE_BENCHMARK_COMMON_H_
#define CAEE_BENCHMARK_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ensemble.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "ts/time_series.h"

namespace caee_bench {

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// \brief One trained artifact shape: the caee_train flags of the model a
/// workload serves, and the dataset its streams replay.
struct ArtifactSpec {
  const char* key;
  const char* dataset;    // data::MakeDataset name
  double scale;           // train/test split scale (caee_train --scale)
  int64_t window;         // --window
  int64_t models;         // --models
  int64_t epochs;         // --epochs of the served artifact
  int64_t embed_dim;      // --embed-dim (0 = auto)
  int64_t layers;         // --layers
  double train_scale;     // --scale of the timed training runs
  double offline_scale;   // test split scale of the offline Score metric
};

/// \brief One workload: an artifact, the caee_serve settings it is served
/// with, and the traffic mix sent to it.
struct Workload {
  const char* name;
  const ArtifactSpec* artifact;
  // caee_serve --shards / --max-batch / --flush-ms / --health /
  // --drift-threshold. The in-process replay builds the same ServeConfig.
  int64_t shards;
  int64_t max_batch;
  int64_t flush_ms;
  bool health;
  double drift_threshold;
  int64_t opened;          // sessions opened in set-up
  int64_t active;          // sessions that receive traffic
  bool spot_sessions;      // open sessions with the SPOT policy
  double lo_wps;           // fixed low rate
  double hi_wps;           // fixed high rate
  double offer_wps;        // schedule rate of the saturation script; only
                           // sets how many frames are generated (they are
                           // written as fast as the pipe takes them)
  double reload_period_s;  // admin reload cadence (0 = none)
  int64_t verify_every;    // 1 = check every score, N = seeded 1-in-N
};

/// \brief Threads caee_serve scores with. One: on a 4-vCPU virtual machine
/// of a shared host, a batch split over threads waits for whichever vCPU
/// the host runs last or wakes last, and its time stops repeating. With the
/// server's request loop and flusher and the harness's writer and reader,
/// at most four threads are busy, as many as nproc, and most of them sleep.
inline constexpr int64_t kServeThreads = 1;
/// \brief Threads of caee_train and the in-process offline Score, one for
/// the same reason.
inline constexpr int64_t kTrainThreads = 1;
/// \brief Epochs per member of the timed training runs (train_s, core.fit_s):
/// one, so several paper-scale runs fit into one benchmark run.
inline constexpr int64_t kTrainEpochs = 1;
/// \brief Measured seconds of one run: the low-rate, high-rate and
/// saturation phases together. It equals BENCHMARK.json's run_seconds, the
/// length every bound was calibrated at (benchmark/baseline.json).
inline constexpr double kRunSeconds = 25.0;
/// \brief Shares of kRunSeconds given to the low-rate phase, the high-rate
/// phase and the saturation phase of the end-to-end run. The latency
/// quantiles need the most windows; a saturation rate is a mean and settles
/// sooner.
inline constexpr double kLoShare = 0.4;
inline constexpr double kHiShare = 0.4;
inline constexpr double kSaturationShare = 0.2;
/// \brief Seed of the two served artifacts and their datasets. Fixed, so
/// that server behaviour (thresholds, SPOT and health verdicts) is the
/// same on every run; the run seed drives traffic and training data.
inline constexpr uint64_t kArtifactSeed = 7;

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// \brief caee_train flags of `spec` trained on the dataset at `scale` for
/// `epochs` epochs per member (without --seed/--threads/--output).
std::vector<std::string> TrainFlags(const ArtifactSpec& spec, double scale,
                                    int64_t epochs);
/// \brief The EnsembleConfig caee_train builds from TrainFlags(spec, _,
/// epochs).
caee::core::EnsembleConfig TrainConfig(const ArtifactSpec& spec,
                                       int64_t epochs, uint64_t seed,
                                       int64_t threads);
/// \brief The ServeConfig caee_serve builds from the workload's flags.
caee::serve::ServeConfig ServeConfigOf(const Workload& wl);

// ---------------------------------------------------------------------------
// Run context and results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
};

struct RunContext {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  std::string results_dir;  // absolute; everything the run writes goes here
  std::string serve_bin;
  std::string train_bin;
  std::string artifact;       // cached served artifact
  std::string artifact_copy;  // byte-identical copy (reload target)
};

/// \brief Record a failed check: prints it and marks the run incorrect.
void Fail(RunResult* result, const std::string& what);

/// \brief The end-to-end run (serving.cc): drives caee_serve over a pipe
/// pair with open-loop traffic and caee_train as a child process.
RunResult RunServing(const RunContext& ctx);

/// \brief The traced run (trace.cc): replays the workload's high-rate
/// traffic in-process with spans around every layer's public calls.
RunResult RunTrace(const RunContext& ctx);

// ---------------------------------------------------------------------------
// Clock, randomness, statistics.
// ---------------------------------------------------------------------------

/// \brief CLOCK_MONOTONIC in nanoseconds (the steady_clock of the engine).
int64_t NowNs();
/// \brief Sleep until `due_ns`, spinning the last millisecond.
void SleepUntil(int64_t due_ns);

/// \brief SplitMix64: a tiny seeded generator whose output is the same on
/// every platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                  // [0, 1)
  uint64_t Below(uint64_t n);        // [0, n)
 private:
  uint64_t state_;
};

/// \brief A generator for one named purpose of one run.
Rng MakeRng(uint64_t seed, const char* purpose);

/// \brief Linear-interpolation quantile (q in [0, 1]) of `v`.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Traffic model.
// ---------------------------------------------------------------------------

/// \brief The sessions of one run. Slots 0..active-1 carry traffic; slot
/// `active` is the sentinel, a stream the harness uses to prove the server
/// has processed everything sent before it (responses other than scores
/// are only flushed with the next score batch).
struct Streams {
  std::vector<int64_t> opened_ids;  // every session opened, in open order
  std::vector<int64_t> slot_ids;    // slot -> stream id
  std::vector<int64_t> offsets;     // slot -> first replayed test row
  std::unordered_map<int64_t, int32_t> slot_of;
  int32_t sentinel = 0;
};

Streams MakeStreams(const Workload& wl, int64_t test_length, uint64_t seed);

/// \brief Observation `index` of the stream in `slot`: the test split row
/// (offset + index) mod length.
const float* ObservationRow(const caee::ts::TimeSeries& test,
                            const Streams& streams, int32_t slot,
                            int64_t index);

/// \brief Copy the w x dims window that ends at observation `last` of the
/// stream in `slot` into `out`.
void FillWindow(const caee::ts::TimeSeries& test, const Streams& streams,
                int32_t slot, int64_t last, int64_t window, float* out);

/// \brief One request of a script: the frame's end offset in the script's
/// bytes, when it is due (relative to the script start), and for an
/// observation its stream slot and index (slot -1 for admin frames).
struct Request {
  int64_t at_ns = 0;
  size_t end = 0;
  int32_t slot = -1;
  int64_t index = 0;
};

/// \brief Encoded request frames plus their schedule.
struct Script {
  std::string bytes;
  std::vector<Request> requests;
};

/// \brief Opens every session, warms the active streams to window - 1
/// observations (no window completes), then sends the sentinel a full
/// window, whose score proves readiness. `next_index` receives each slot's
/// next observation index.
Script SetupScript(const Workload& wl, const Streams& streams,
                   const caee::ts::TimeSeries& test, int64_t window,
                   std::vector<int64_t>* next_index);

/// \brief Open-loop Poisson arrivals at `rate` windows/s over `seconds`,
/// each on a uniformly drawn active stream, plus a reload frame every
/// reload period (alternating between the artifact paths; none when
/// `reload_paths` is empty). Advances `next_index`.
Script TrafficScript(const Workload& wl, const Streams& streams,
                     const caee::ts::TimeSeries& test, double rate,
                     double seconds, Rng* rng,
                     const std::vector<std::string>& reload_paths,
                     size_t* reload_counter,
                     std::vector<int64_t>* next_index);

/// \brief Append one frame to a script.
void AppendFrame(Script* script, const caee::serve::framing::Frame& frame,
                 int64_t at_ns, int32_t slot, int64_t index);

/// \brief Append the next observation of the stream in `slot`, due at
/// `at_ns`, and advance its entry of `next_index`.
void AppendObservation(Script* script, const caee::ts::TimeSeries& test,
                       const Streams& streams, int32_t slot,
                       std::vector<int64_t>* next_index, int64_t at_ns);

/// \brief Windows/s a fresh caee_serve child scores while `traffic` (sent
/// after `setup`) is written as fast as the pipe takes it (serving.cc).
double ServedSaturationWps(const RunContext& ctx, const Streams& streams,
                           int64_t window, const Script& setup,
                           const Script& traffic, double seconds,
                           RunResult* result);

// ---------------------------------------------------------------------------
// Files and child processes.
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path);
bool WriteFileBytes(const std::string& path, const std::string& bytes);
/// \brief FNV-1a 64 of `bytes`, as 16 hex digits.
std::string HashHex(const std::string& bytes);

/// \brief A spawned child process. stdin/stdout are pipes when requested;
/// stderr (and stdout otherwise) go to `log_path`. The destructor kills and
/// reaps a child that is still running, so no exit path leaves one behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool pipes,
        const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  int in_fd() const { return in_fd_; }    // write end of the child's stdin
  int out_fd() const { return out_fd_; }  // read end of the child's stdout
  void CloseInput();
  /// \brief Wait for exit; returns the exit code (-1 on a signal).
  int Wait();

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

/// \brief Kill every child still registered (watchdog path).
void KillAllChildren();

/// \brief Run a command to completion; returns its exit code.
int RunCommand(const std::vector<std::string>& argv,
               const std::string& log_path);

}  // namespace caee_bench

#endif  // CAEE_BENCHMARK_COMMON_H_
