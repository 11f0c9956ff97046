#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

extern char** environ;

namespace caee_bench {

namespace fr = caee::serve::framing;

// ---------------------------------------------------------------------------
// Workloads. Rates, limits and sizes are the benchmark's constants; the
// README explains each choice, and benchmark/baseline.json records what
// they measured.
// ---------------------------------------------------------------------------

namespace {

// The small "bench shape" model: w=8, D'=8, L=1, M=4 over 2 ECG dims.
const ArtifactSpec kSmall{"small", "ECG", 0.2, 8, 4, 3, 8, 1, 0.2, 1.0};
// The paper-scale model of the reference invocation (--rolling_size 16
// --ensemble_members 20) over 38 SMD dims. Its timed training runs use half
// the served artifact's training data (a smaller split leaves SPOT too few
// excesses to calibrate), so three fit in one run.
const ArtifactSpec kPaper{"paper", "SMD", 0.2, 16, 20, 3, 0, 2, 0.1, 0.1};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Many mostly idle tenants on a cheap model: micro-batching sets the
      // latency, and the serve and wire layers take their largest share.
      // One shard, so that the two rates fall into the two batching
      // regimes: at lo a batch is flushed by the 5 ms deadline, at hi it
      // fills in about 2 ms. Each is at most a third of saturation.
      {"fleet", &kSmall, 1, 16, 5, false, 0.0, 100000, 4096, false, 1500.0,
       8000.0, 60000.0, 0.0, 1},
      // Few streams on the paper-scale model: scoring carries the time.
      // Every batch is deadline-flushed; hi keeps the scoring thread about
      // a third busy.
      {"paper", &kPaper, 1, 16, 5, false, 0.0, 256, 256, false, 150.0, 300.0,
       4000.0, 0.0, 8},
      // Writes beside reads: SPOT sessions, health and drift monitors, and
      // a hot-swap reload four times a second, each of which stalls the
      // request loop for about 10 ms (canary included).
      {"lifecycle", &kSmall, 4, 8, 50, true, 0.5, 1024, 1024, true, 1500.0,
       6000.0, 60000.0, 0.25, 1},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& wl : Workloads()) {
    if (name == wl.name) return &wl;
  }
  return nullptr;
}

std::vector<std::string> TrainFlags(const ArtifactSpec& spec, double scale,
                                    int64_t epochs) {
  std::vector<std::string> flags = {
      "--synthetic", spec.dataset,
      "--scale",     std::to_string(scale),
      "--window",    std::to_string(spec.window),
      "--models",    std::to_string(spec.models),
      "--epochs",    std::to_string(epochs),
      "--layers",    std::to_string(spec.layers)};
  if (spec.embed_dim > 0) {
    flags.push_back("--embed-dim");
    flags.push_back(std::to_string(spec.embed_dim));
  }
  flags.push_back("--spot");
  flags.push_back("--health");
  return flags;
}

caee::core::EnsembleConfig TrainConfig(const ArtifactSpec& spec,
                                       int64_t epochs, uint64_t seed,
                                       int64_t threads) {
  caee::core::EnsembleConfig config;
  config.window = spec.window;
  config.num_models = spec.models;
  config.epochs_per_model = epochs;
  config.batch_size = 64;
  config.cae.embed_dim = spec.embed_dim;
  config.cae.num_layers = spec.layers;
  config.max_train_windows = 0;
  config.lr = static_cast<float>(1e-3);
  config.num_threads = threads;
  config.seed = seed;
  return config;
}

caee::serve::ServeConfig ServeConfigOf(const Workload& wl) {
  caee::serve::ServeConfig config;
  config.max_batch = wl.max_batch;
  config.flush_deadline_ms = wl.flush_ms;
  config.num_shards = wl.shards;
  config.drift_threshold = wl.drift_threshold;
  config.health.enabled = wl.health;
  return config;
}

void Fail(RunResult* result, const std::string& what) {
  std::cerr << "caee_bench: CHECK FAILED: " << what << "\n";
  result->correct = false;
}

// ---------------------------------------------------------------------------
// Clock, randomness, statistics.
// ---------------------------------------------------------------------------

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntil(int64_t due_ns) {
  // Wake a millisecond early: a vCPU left idle longer can take several
  // milliseconds to be scheduled again by the host.
  constexpr int64_t kSpinNs = 1000000;
  if (due_ns - NowNs() > 2 * kSpinNs) {
    const int64_t wake = due_ns - kSpinNs;
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wake / 1000000000);
    ts.tv_nsec = static_cast<long>(wake % 1000000000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (NowNs() < due_ns) {
  }
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

Rng MakeRng(uint64_t seed, const char* purpose) {
  Rng mix(seed ^ Fnv1a(purpose));
  return Rng(mix.Next());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Traffic model.
// ---------------------------------------------------------------------------

Streams MakeStreams(const Workload& wl, int64_t test_length, uint64_t seed) {
  Streams s;
  s.opened_ids.reserve(static_cast<size_t>(wl.opened + 1));
  for (int64_t id = 1; id <= wl.opened; ++id) s.opened_ids.push_back(id);
  // Active streams are a seeded sample of the opened ones, so they sit at
  // scattered session-slab slots rather than one dense prefix.
  std::vector<int64_t> pool = s.opened_ids;
  Rng pick = MakeRng(seed, "active");
  for (int64_t i = 0; i < wl.active; ++i) {
    const size_t at = static_cast<size_t>(i);
    std::swap(pool[at], pool[at + pick.Below(pool.size() - at)]);
    s.slot_ids.push_back(pool[at]);
  }
  const int64_t sentinel_id = wl.opened + 1;
  s.opened_ids.push_back(sentinel_id);
  s.slot_ids.push_back(sentinel_id);
  s.sentinel = static_cast<int32_t>(wl.active);

  Rng offsets = MakeRng(seed, "offsets");
  for (size_t slot = 0; slot < s.slot_ids.size(); ++slot) {
    s.offsets.push_back(static_cast<int64_t>(
        offsets.Below(static_cast<uint64_t>(test_length))));
    s.slot_of[s.slot_ids[slot]] = static_cast<int32_t>(slot);
  }
  return s;
}

const float* ObservationRow(const caee::ts::TimeSeries& test,
                            const Streams& streams, int32_t slot,
                            int64_t index) {
  const int64_t row =
      (streams.offsets[static_cast<size_t>(slot)] + index) % test.length();
  return test.row(row);
}

void FillWindow(const caee::ts::TimeSeries& test, const Streams& streams,
                int32_t slot, int64_t last, int64_t window, float* out) {
  const size_t dims = static_cast<size_t>(test.dims());
  for (int64_t r = 0; r < window; ++r) {
    std::memcpy(out + static_cast<size_t>(r) * dims,
                ObservationRow(test, streams, slot, last - window + 1 + r),
                dims * sizeof(float));
  }
}

void AppendFrame(Script* script, const fr::Frame& frame, int64_t at_ns,
                 int32_t slot, int64_t index) {
  thread_local std::ostringstream out;
  out.str("");
  fr::WriteFrame(out, frame);
  script->bytes += out.str();
  script->requests.push_back(
      Request{at_ns, script->bytes.size(), slot, index});
}

void AppendObservation(Script* script, const caee::ts::TimeSeries& test,
                       const Streams& streams, int32_t slot,
                       std::vector<int64_t>* next_index, int64_t at_ns) {
  thread_local std::vector<float> values;
  const int64_t index = (*next_index)[static_cast<size_t>(slot)]++;
  const float* row = ObservationRow(test, streams, slot, index);
  values.assign(row, row + test.dims());
  AppendFrame(script,
              fr::MakeObserveFrame(streams.slot_ids[static_cast<size_t>(slot)],
                                   values),
              at_ns, slot, index);
}


Script SetupScript(const Workload& wl, const Streams& streams,
                   const caee::ts::TimeSeries& test, int64_t window,
                   std::vector<int64_t>* next_index) {
  Script script;
  for (const int64_t id : streams.opened_ids) {
    AppendFrame(&script,
                wl.spot_sessions
                    ? fr::MakeOpenFrame(id, caee::core::ThresholdPolicy::kSpot)
                    : fr::MakeOpenFrame(id),
                0, -1, 0);
  }
  next_index->assign(streams.slot_ids.size(), 0);
  for (int32_t slot = 0; slot < streams.sentinel; ++slot) {
    for (int64_t i = 0; i + 1 < window; ++i) {
      AppendObservation(&script, test, streams, slot, next_index, 0);
    }
  }
  for (int64_t i = 0; i < window; ++i) {
    AppendObservation(&script, test, streams, streams.sentinel, next_index, 0);
  }
  return script;
}

Script TrafficScript(const Workload& wl, const Streams& streams,
                     const caee::ts::TimeSeries& test, double rate,
                     double seconds, Rng* rng,
                     const std::vector<std::string>& reload_paths,
                     size_t* reload_counter,
                     std::vector<int64_t>* next_index) {
  Script script;
  const double end_ns = seconds * 1e9;
  const double period_ns = wl.reload_period_s * 1e9;
  double next_reload = period_ns > 0.0 && !reload_paths.empty()
                           ? period_ns / 2.0
                           : end_ns + 1.0;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng->Uniform()) / rate * 1e9;
    while (next_reload <= t && next_reload < end_ns) {
      const std::string& path =
          reload_paths[(*reload_counter)++ % reload_paths.size()];
      AppendFrame(&script, fr::MakeReloadFrame(path),
                  static_cast<int64_t>(next_reload), -1, 0);
      next_reload += period_ns;
    }
    if (t >= end_ns) break;
    const int32_t slot = static_cast<int32_t>(
        rng->Below(static_cast<uint64_t>(streams.sentinel)));
    AppendObservation(&script, test, streams, slot, next_index,
                      static_cast<int64_t>(t));
  }
  return script;
}

// ---------------------------------------------------------------------------
// Files and child processes.
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string HashHex(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a(bytes)));
  return hex;
}

namespace {

// Live children, readable from the watchdog's signal handler.
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

}  // namespace

void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
}

Child::Child(const std::vector<std::string>& argv, bool pipes,
             const std::string& log_path) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (pipes) {
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      return;
    }
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipes) {
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  }
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipes) {
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
  }
  if (rc == 0) {
    pid_ = pid;
    Register(pid);
  }
}

Child::~Child() {
  CloseInput();
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    Wait();
  }
  if (out_fd_ >= 0) close(out_fd_);
}

void Child::CloseInput() {
  if (in_fd_ >= 0) close(in_fd_);
  in_fd_ = -1;
}

int Child::Wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  Unregister(pid_);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunCommand(const std::vector<std::string>& argv,
               const std::string& log_path) {
  Child child(argv, false, log_path);
  if (!child.started()) return -1;
  return child.Wait();
}

}  // namespace caee_bench
