// End-to-end half of caee_bench: the real binaries, driven from outside.
//
// One caee_serve child per set-up, spoken to over one pipe pair with the
// binary protocol. The harness runs two client threads: this one writes a
// seeded open-loop Poisson schedule (sleep, then spin to the due time), and
// a reader thread decodes response frames and stamps each with the time
// its bytes arrived. A window's latency runs from the due time of the
// observation that completes it to that stamp, so a stall is charged to
// every request that was due during it.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <streambuf>
#include <thread>

#include "common.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/threshold.h"
#include "data/registry.h"

namespace caee_bench {

namespace fr = caee::serve::framing;

namespace {

// Set-ups per round, besides the one before the first round; set-up time
// is the median of all of them.
constexpr int kSetupsPerRound = 2;
// The run repeats its phases in rounds: lo, hi, saturation, timed
// training and offline scoring, then more set-ups, kRounds times. The speed
// of a shared host drifts by tens of percent over tens of seconds, so each
// metric is sampled across the whole run rather than in one stretch of it.
constexpr int kRounds = 5;
// Latency percentiles are taken per interval and the median across the
// intervals of every round is reported, so one stall of the machine does
// not move the result: each round's run of a phase is cut into as many
// equal intervals as leave each at least kIntervalWindows windows (fifty
// beyond p90), at most kIntervals. With reloads in the traffic, intervals
// span whole reload periods, so each holds the same number of reloads.
constexpr int kIntervals = 4;
constexpr int64_t kIntervalWindows = 500;
// The first part of each saturation phase fills the pipe and is not
// counted; the rest is cut into samples of kSaturationSampleS (of one
// reload period when the workload reloads).
constexpr double kSaturationFillS = 0.25;
constexpr double kSaturationSampleS = 0.25;
// Frames written per write() while saturating.
constexpr size_t kSaturationChunk = 64;
// One in this many saturation windows is checked bitwise (the fixed-rate
// phases are checked in full, or as the workload says).
constexpr uint64_t kSaturationVerifyEvery = 8;
// A fixed-rate phase whose generator ran later than this at p99 is
// flagged: its latencies partly measure the harness.
constexpr double kMaxLatenessMs = 0.5;
// caee_train runs and offline Score calls are spread over the rounds: by
// the end of round r, (r + 1) / kRounds of the minimum count has run, and a
// round runs more while another run fits in its share of the time budget.
constexpr int kMinTrainRuns = 3;
constexpr double kTrainBudgetS = 1.5;
constexpr int kMinOfflineCalls = kRounds;
constexpr double kOfflineBudgetS = 2.0;

/// \brief Whether round `round` makes another run of something run `runs`
/// times so far, taking `times`: until its share of `min_count` is reached,
/// then while the median run still fits in the round's share of `budget_s`.
bool RunAgain(int runs, const std::vector<double>& times,
              double spent_in_round, int min_count, double budget_s,
              int round) {
  const int due = ((round + 1) * min_count + kRounds - 1) / kRounds;
  if (runs < due) return true;
  return !times.empty() &&
         spent_in_round + Median(times) <= budget_s / kRounds;
}

/// \brief A streambuf over a pipe that remembers when its last read()
/// returned: the arrival time of the bytes that completed a frame.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}
  int64_t last_read_ns() const { return last_read_ns_; }

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    last_read_ns_ = NowNs();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  int fd_;
  char buf_[1 << 16];
  int64_t last_read_ns_ = 0;
};

struct ScoreRec {
  int64_t stream;
  int64_t index;
  double score;
  bool flag;
  int64_t recv_ns;
};

/// \brief One caee_serve child plus the reader thread decoding its output.
class ServerSession {
 public:
  ServerSession(const RunContext& ctx, const std::string& log_path)
      : child_(ServeArgv(ctx), true, log_path) {
    if (child_.started()) reader_ = std::thread([this] { ReaderLoop(); });
  }

  ~ServerSession() {
    child_.CloseInput();
    if (reader_.joinable()) {
      // The child dies with the Child destructor at the latest; a reader
      // blocked on a live child needs it gone first.
      if (!reader_done_.load()) kill(child_.pid(), SIGKILL);
      reader_.join();
    }
  }

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  bool started() const { return child_.started(); }
  pid_t pid() const { return child_.pid(); }

  bool Send(const std::string& bytes, size_t begin, size_t end) {
    while (begin < end) {
      const ssize_t n =
          write(child_.in_fd(), bytes.data() + begin, end - begin);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      begin += static_cast<size_t>(n);
    }
    return true;
  }

  /// \brief Make room for `n` more scores, so that the reader does not
  /// stop to grow its buffer (megabytes, late in a phase) while it is timed.
  void Reserve(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    scores_.reserve(scores_.size() + n);
  }

  void TakeScores(std::vector<ScoreRec>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->insert(out->end(), scores_.begin(), scores_.end());
    scores_.clear();
  }

  /// \brief When each reload acknowledgement arrived, in order.
  std::vector<int64_t> reload_acks() {
    std::lock_guard<std::mutex> lock(mu_);
    return reload_acks_;
  }

  fr::HealthStatus health() {
    std::lock_guard<std::mutex> lock(mu_);
    return health_;
  }

  int64_t VmHwmKb() const {
    std::ifstream in("/proc/" + std::to_string(child_.pid()) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
    }
    return -1;
  }

  /// \brief Close the request pipe (the server drains and exits), wait for
  /// the reader to see EOF, and return the server's exit code.
  int Shutdown() {
    child_.CloseInput();
    if (reader_.joinable()) reader_.join();
    return child_.Wait();
  }

  std::atomic<int64_t> scores{0};
  std::atomic<int64_t> oks{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> backpressured{0};
  std::atomic<int64_t> health_frames{0};
  std::atomic<bool> wire_error{false};

 private:
  static std::vector<std::string> ServeArgv(const RunContext& ctx) {
    const Workload& wl = *ctx.workload;
    std::vector<std::string> argv = {
        ctx.serve_bin,  "--model",       ctx.artifact,
        "--streams",    "--binary",      "--threads",
        std::to_string(kServeThreads),   "--shards",
        std::to_string(wl.shards),       "--max-batch",
        std::to_string(wl.max_batch),    "--flush-ms",
        std::to_string(wl.flush_ms)};
    if (wl.health) argv.push_back("--health");
    if (wl.drift_threshold > 0.0) {
      argv.push_back("--drift-threshold");
      argv.push_back(std::to_string(wl.drift_threshold));
    }
    return argv;
  }

  void ReaderLoop() {
    FdInBuf buf(child_.out_fd());
    std::istream in(&buf);
    fr::Frame frame;
    while (true) {
      bool eof = false;
      if (!fr::ReadFrame(in, &frame, &eof).ok()) {
        wire_error.store(true);
        break;
      }
      if (eof) break;
      const int64_t recv = buf.last_read_ns();
      switch (frame.frame_type()) {
        case fr::FrameType::kScore: {
          caee::serve::StreamScore s;
          if (!fr::ParseScore(frame, &s).ok()) {
            wire_error.store(true);
            break;
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            scores_.push_back(ScoreRec{s.stream_id, s.index, s.score, s.flag,
                                       recv});
          }
          scores.fetch_add(1);
          break;
        }
        case fr::FrameType::kOk:
          if (frame.stream_id == 0) {
            std::lock_guard<std::mutex> lock(mu_);
            reload_acks_.push_back(recv);
          }
          oks.fetch_add(1);
          break;
        case fr::FrameType::kError: {
          caee::Status error;
          fr::ParseError(frame, &error);
          if (errors.fetch_add(1) < 5) {
            std::cerr << "caee_bench: server error for stream "
                      << frame.stream_id << ": " << error << "\n";
          }
          break;
        }
        case fr::FrameType::kBackpressure:
          backpressured.fetch_add(1);
          break;
        case fr::FrameType::kHealthStatus: {
          fr::HealthStatus hs;
          if (fr::ParseHealthStatus(frame, &hs).ok()) {
            std::lock_guard<std::mutex> lock(mu_);
            health_ = hs;
          }
          health_frames.fetch_add(1);
          break;
        }
        default:
          wire_error.store(true);
          break;
      }
    }
    reader_done_.store(true);
  }

  Child child_;
  std::mutex mu_;
  std::vector<ScoreRec> scores_;
  std::vector<int64_t> reload_acks_;
  fr::HealthStatus health_;
  std::atomic<bool> reader_done_{false};
  std::thread reader_;
};

// The CPU-bound metrics report their best sample. The host's speed
// changes by tens of percent between stretches of tens of seconds, so a
// median follows whichever stretches a run happened to land in; the best
// sample is the program on the host at its fastest, which the run reaches
// in some round. Both are NaN without samples: a metric not measured.
double Largest(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::max_element(v.begin(), v.end());
}

double Smallest(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

template <typename Pred>
bool WaitUntil(Pred pred, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!pred()) {
    if (NowNs() > deadline) return false;
    usleep(200);
  }
  return true;
}

// Phase ids of the window table.
constexpr int kLoPhase = 0;
constexpr int kHiPhase = 1;
constexpr int kSaturationPhase = 2;
constexpr int kSetupPhase = -1;
constexpr int kHealthPhase = -2;

struct Window {
  int32_t slot;
  int64_t index;
  int phase;
  int64_t due_ns;
  int64_t recv_ns = -1;
  double score = 0.0;
  bool flag = false;
  int count = 0;
};

struct PhaseOutcome {
  int64_t base_ns = 0;
  double seconds = 0.0;
  std::vector<std::pair<int64_t, double>> latency;  // (due, latency ms)
  std::vector<double> lateness_ms;
  bool complete = false;
};

/// \brief The q-quantile of a phase's latencies: taken per interval of
/// every round's run of the phase, and reported as the median across all
/// those intervals (see kIntervals).
double IntervalQuantile(const std::vector<PhaseOutcome>& rounds, double q,
                        double reload_s) {
  std::vector<double> per_slice;
  for (const PhaseOutcome& p : rounds) {
    const int64_t n = static_cast<int64_t>(p.latency.size());
    int64_t k = std::max<int64_t>(
        1, std::min<int64_t>(kIntervals, n / kIntervalWindows));
    double span_s = p.seconds / static_cast<double>(k);
    if (reload_s > 0.0) {
      span_s = std::ceil(span_s / reload_s - 1e-9) * reload_s;
      k = std::max<int64_t>(1,
                            static_cast<int64_t>(p.seconds / span_s + 1e-9));
    }
    std::vector<std::vector<double>> slices(static_cast<size_t>(k));
    for (const auto& [due, ms] : p.latency) {
      const int64_t at = static_cast<int64_t>(
          static_cast<double>(due - p.base_ns) / (span_s * 1e9));
      slices[static_cast<size_t>(std::clamp<int64_t>(at, 0, k - 1))]
          .push_back(ms);
    }
    for (auto& slice : slices) {
      if (!slice.empty()) per_slice.push_back(Quantile(std::move(slice), q));
    }
  }
  return Median(per_slice);
}

/// \brief The bookkeeping of one served session: every window sent, when
/// it was due, and what came back.
class Ledger {
 public:
  Ledger(const Streams& streams, int64_t window)
      : streams_(streams), window_(window),
        window_of_(streams.slot_ids.size()) {}

  /// \brief Register the windows completed by the first `count` requests
  /// of a script (all of them by default).
  void Register(const Script& script, int phase, int64_t base_ns,
                size_t count = SIZE_MAX) {
    count = std::min(count, script.requests.size());
    for (size_t i = 0; i < count; ++i) {
      const Request& r = script.requests[i];
      if (r.slot < 0 || r.index < window_ - 1) continue;
      auto& of = window_of_[static_cast<size_t>(r.slot)];
      if (of.size() <= static_cast<size_t>(r.index)) {
        of.resize(static_cast<size_t>(r.index) + 1, -1);
      }
      of[static_cast<size_t>(r.index)] = static_cast<int32_t>(windows_.size());
      windows_.push_back(Window{r.slot, r.index, phase, base_ns + r.at_ns});
    }
  }

  /// \brief Attach received scores to their windows; returns false on a
  /// score for a window never sent.
  bool Collect(ServerSession* session, RunResult* result) {
    std::vector<ScoreRec> recs;
    session->TakeScores(&recs);
    bool ok = true;
    for (const ScoreRec& rec : recs) {
      const auto it = streams_.slot_of.find(rec.stream);
      int32_t id = -1;
      if (it != streams_.slot_of.end()) {
        const auto& of = window_of_[static_cast<size_t>(it->second)];
        if (rec.index >= 0 && static_cast<size_t>(rec.index) < of.size()) {
          id = of[static_cast<size_t>(rec.index)];
        }
      }
      if (id < 0) {
        Fail(result, "score for a window never sent: stream " +
                         std::to_string(rec.stream) + " index " +
                         std::to_string(rec.index));
        ok = false;
        continue;
      }
      Window& w = windows_[static_cast<size_t>(id)];
      if (++w.count > 1) {
        Fail(result, "window scored twice: stream " +
                         std::to_string(rec.stream) + " index " +
                         std::to_string(rec.index));
        ok = false;
      }
      w.recv_ns = rec.recv_ns;
      w.score = rec.score;
      w.flag = rec.flag;
    }
    return ok;
  }

  int64_t size() const { return static_cast<int64_t>(windows_.size()); }
  const std::vector<Window>& windows() const { return windows_; }
  const std::vector<std::vector<int32_t>>& window_of() const {
    return window_of_;
  }

 private:
  const Streams& streams_;
  int64_t window_;
  std::vector<std::vector<int32_t>> window_of_;
  std::vector<Window> windows_;
};

/// \brief Write a script on its schedule. Frames due together go out in
/// one write; each frame's lateness is the write start minus its due time.
bool WriteScript(ServerSession* session, const Script& script,
                 int64_t base_ns, std::vector<double>* lateness_ms,
                 std::vector<int64_t>* admin_sent_ns) {
  const auto& reqs = script.requests;
  size_t i = 0, offset = 0;
  while (i < reqs.size()) {
    SleepUntil(base_ns + reqs[i].at_ns);
    const int64_t now = NowNs();
    size_t j = i;
    while (j < reqs.size() && base_ns + reqs[j].at_ns <= now) ++j;
    if (!session->Send(script.bytes, offset, reqs[j - 1].end)) return false;
    for (size_t k = i; k < j; ++k) {
      if (reqs[k].slot >= 0) {
        lateness_ms->push_back(
            static_cast<double>(now - base_ns - reqs[k].at_ns) / 1e6);
      } else {
        admin_sent_ns->push_back(now);
      }
    }
    offset = reqs[j - 1].end;
    i = j;
  }
  return true;
}

PhaseOutcome RunPhase(ServerSession* session, Ledger* ledger,
                      const Script& script, int phase, double seconds,
                      std::vector<int64_t>* admin_sent_ns,
                      RunResult* result) {
  PhaseOutcome out;
  out.base_ns = NowNs() + 2000000;
  out.seconds = seconds;
  const int64_t first = ledger->size();
  ledger->Register(script, phase, out.base_ns);
  const int64_t expected = ledger->size();
  session->Reserve(static_cast<size_t>(expected - first));
  out.complete =
      WriteScript(session, script, out.base_ns, &out.lateness_ms,
                  admin_sent_ns) &&
      WaitUntil([&] { return session->scores.load() >= expected; },
                std::max(20.0, 3.0 * seconds));
  ledger->Collect(session, result);
  for (int64_t id = first; id < expected; ++id) {
    const Window& w = ledger->windows()[static_cast<size_t>(id)];
    if (w.count == 0) continue;
    out.latency.emplace_back(w.due_ns,
                             static_cast<double>(w.recv_ns - w.due_ns) / 1e6);
  }
  return out;
}

/// \brief Offer frames faster than the server scores them, ignoring the
/// script's schedule, for `seconds`: the pipe's backpressure holds the
/// backlog and the writer waits on it. Returns the rate of scored windows
/// in each sample of `sample_s` after the first kSaturationFillS (which
/// fill the pipe), or nothing if the sent windows never drained. When
/// `reload` is set, every sample starts with the reload frame it returns,
/// so that each sample holds one reload. Only a prefix of the script is
/// sent: when `next_index` is given, each stream's entry rewinds to its
/// first observation not sent, so that the next script continues the
/// stream.
std::vector<double> Saturate(ServerSession* session, Ledger* ledger,
                             const Script& script, int phase, double seconds,
                             double sample_s,
                             const std::function<std::string()>& reload,
                             std::vector<int64_t>* admin_sent_ns,
                             std::vector<int64_t>* next_index,
                             RunResult* result) {
  const auto& reqs = script.requests;
  const int64_t base = NowNs();
  const int64_t end = base + static_cast<int64_t>(seconds * 1e9);
  const int64_t sample_ns = static_cast<int64_t>(sample_s * 1e9);
  int64_t sample_start = base + static_cast<int64_t>(kSaturationFillS * 1e9);
  int64_t sample_scores = -1;
  std::vector<double> rates;
  session->Reserve(reqs.size());
  size_t i = 0, offset = 0;
  while (i < reqs.size() && NowNs() < end) {
    const size_t j = std::min(reqs.size(), i + kSaturationChunk);
    if (!session->Send(script.bytes, offset, reqs[j - 1].end)) break;
    int64_t now = NowNs();
    for (size_t k = i; k < j; ++k) {
      if (reqs[k].slot < 0) admin_sent_ns->push_back(now);
    }
    offset = reqs[j - 1].end;
    i = j;
    if (now < sample_start) continue;
    const int64_t scored = session->scores.load();
    if (sample_scores >= 0 && now - sample_start >= sample_ns) {
      rates.push_back(static_cast<double>(scored - sample_scores) /
                      (static_cast<double>(now - sample_start) / 1e9));
      sample_scores = -1;
    }
    if (sample_scores < 0) {
      if (reload) {
        const std::string frame = reload();
        if (!session->Send(frame, 0, frame.size())) break;
        now = NowNs();
        admin_sent_ns->push_back(now);
      }
      sample_start = now;
      sample_scores = scored;
    }
  }
  if (i == reqs.size()) {
    Fail(result, "the saturation script ran out before the phase ended");
  }
  ledger->Register(script, phase, base, i);
  if (next_index != nullptr) {
    for (size_t k = reqs.size(); k-- > i;) {
      if (reqs[k].slot >= 0) {
        (*next_index)[static_cast<size_t>(reqs[k].slot)] = reqs[k].index;
      }
    }
  }
  const int64_t expected = ledger->size();
  const bool drained = WaitUntil(
      [&] { return session->scores.load() >= expected; }, 30.0);
  ledger->Collect(session, result);
  if (!drained) rates.clear();
  return rates;
}

/// \brief Score every checked window in-process and compare bits; check
/// every flag against the static threshold or a per-stream SPOT reference.
void Verify(const RunContext& ctx, const Ledger& ledger, const Streams& streams,
            const caee::ts::TimeSeries& test,
            const caee::core::LoadedEnsemble& ref, RunResult* result) {
  const Workload& wl = *ctx.workload;
  const int64_t w = ref.ensemble->config().window;
  const int64_t dims = test.dims();
  const auto& windows = ledger.windows();

  std::vector<int32_t> checked;
  for (size_t id = 0; id < windows.size(); ++id) {
    const Window& win = windows[id];
    if (win.count == 0) continue;
    const uint64_t every =
        win.phase == kSaturationPhase
            ? std::max<uint64_t>(kSaturationVerifyEvery,
                                 static_cast<uint64_t>(wl.verify_every))
            : static_cast<uint64_t>(wl.verify_every);
    if (every > 1) {
      Rng pick(ctx.seed ^ (static_cast<uint64_t>(win.slot) << 40) ^
               static_cast<uint64_t>(win.index));
      if (pick.Next() % every != 0) continue;
    }
    checked.push_back(static_cast<int32_t>(id));
  }
  constexpr size_t kChunk = 256;
  std::vector<float> buf(kChunk * static_cast<size_t>(w * dims));
  std::vector<double> scores;
  int64_t mismatches = 0;
  for (size_t begin = 0; begin < checked.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, checked.size() - begin);
    for (size_t b = 0; b < n; ++b) {
      const Window& win = windows[static_cast<size_t>(checked[begin + b])];
      FillWindow(test, streams, win.slot, win.index, w,
                 buf.data() + b * static_cast<size_t>(w * dims));
    }
    if (!ref.ensemble
             ->ScoreWindowsLastInto(buf.data(), static_cast<int64_t>(n),
                                    &scores)
             .ok()) {
      Fail(result, "in-process reference scoring failed");
      return;
    }
    for (size_t b = 0; b < n; ++b) {
      const Window& win = windows[static_cast<size_t>(checked[begin + b])];
      if (std::memcmp(&scores[b], &win.score, sizeof(double)) != 0 &&
          ++mismatches <= 3) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "score of stream %lld index %lld is %.17g, in-process "
                      "reference %.17g",
                      static_cast<long long>(streams.slot_ids[win.slot]),
                      static_cast<long long>(win.index), win.score, scores[b]);
        Fail(result, msg);
      }
    }
  }
  if (mismatches > 0) {
    Fail(result, std::to_string(mismatches) + " of " +
                     std::to_string(checked.size()) +
                     " checked scores differ from the in-process reference");
  }

  int64_t bad_flags = 0;
  if (wl.spot_sessions) {
    // SPOT verdicts depend on each stream's whole score history, so the
    // reference replays every stream in index order.
    for (const auto& of : ledger.window_of()) {
      caee::core::SpotState spot(*ref.spot);
      for (const int32_t id : of) {
        if (id < 0) continue;
        const Window& win = windows[static_cast<size_t>(id)];
        if (win.count == 0) break;
        bad_flags += spot.Observe(win.score) != win.flag;
      }
    }
  } else {
    const double threshold =
        ref.threshold.value_or(std::numeric_limits<double>::infinity());
    for (const Window& win : windows) {
      if (win.count == 0) continue;
      bad_flags += caee::core::ThresholdExceeded(win.score, threshold) !=
                   win.flag;
    }
  }
  if (bad_flags > 0) {
    Fail(result, std::to_string(bad_flags) +
                     " flags differ from the reference threshold verdict");
  }
  std::cout << "# " << wl.name << " verified " << checked.size()
            << " scores bitwise and " << windows.size() << " flags\n";
}

std::string LogPath(const RunContext& ctx, const std::string& what) {
  return ctx.results_dir + "/logs/" + ctx.workload->name + "-" + what + "-" +
         std::to_string(ctx.seed) + ".log";
}

}  // namespace

double ServedSaturationWps(const RunContext& ctx, const Streams& streams,
                           int64_t window, const Script& setup,
                           const Script& traffic, double seconds,
                           RunResult* result) {
  ServerSession session(ctx, LogPath(ctx, "pipe"));
  result->attempted += static_cast<int64_t>(setup.requests.size());
  if (!session.started() || !session.Send(setup.bytes, 0, setup.bytes.size()) ||
      !WaitUntil([&] { return session.scores.load() >= 1; }, 60.0)) {
    Fail(result, "caee_serve did not become ready");
    return 0.0;
  }
  Ledger ledger(streams, window);
  ledger.Register(setup, kSetupPhase, 0);
  std::vector<int64_t> admin_sent_ns;
  // The median sample, comparable with the in-process loop's mean rate.
  const double wps = Median(Saturate(&session, &ledger, traffic,
                                     kSaturationPhase, seconds,
                                     kSaturationSampleS, nullptr,
                                     &admin_sent_ns, nullptr, result));
  if (session.Shutdown() != 0 || session.errors.load() > 0 ||
      session.backpressured.load() > 0 || session.wire_error.load()) {
    Fail(result, "caee_serve failed requests while saturated");
  }
  return wps;
}

RunResult RunServing(const RunContext& ctx) {
  RunResult result;
  const Workload& wl = *ctx.workload;
  const ArtifactSpec& spec = *wl.artifact;

  auto loaded = caee::core::LoadEnsemble(ctx.artifact);
  if (!loaded.ok()) {
    Fail(&result, "cannot load " + ctx.artifact + ": " +
                      loaded.status().message());
    return result;
  }
  caee::core::LoadedEnsemble ref = std::move(loaded).value();
  const int64_t w = ref.ensemble->config().window;
  auto dataset = caee::data::MakeDataset(spec.dataset, spec.scale,
                                         kArtifactSeed);
  if (!dataset.ok()) {
    Fail(&result, "cannot make dataset: " + dataset.status().message());
    return result;
  }
  const caee::ts::TimeSeries& test = dataset->test;
  const Streams streams = MakeStreams(wl, test.length(), ctx.seed);

  // --- Set-up: the server the phases run on, then more spread over rounds -
  std::vector<int64_t> next_index;
  const Script setup = SetupScript(wl, streams, test, w, &next_index);
  std::vector<double> setup_s;
  const int64_t opens = static_cast<int64_t>(streams.opened_ids.size());
  // Spawns a server and sends it the set-up script; returns it once the
  // sentinel's score proves it ready, or null.
  auto set_up = [&]() -> std::unique_ptr<ServerSession> {
    const int64_t t0 = NowNs();
    auto server = std::make_unique<ServerSession>(
        ctx, LogPath(ctx, "serve" + std::to_string(setup_s.size())));
    result.attempted += opens + 1;
    if (!server->started() ||
        !server->Send(setup.bytes, 0, setup.bytes.size()) ||
        !WaitUntil([&] { return server->scores.load() >= 1; }, 60.0)) {
      Fail(&result, "caee_serve did not become ready");
      result.failed += opens + 1;
      return nullptr;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    // The sentinel's score follows every earlier response on the wire, so
    // every open is answered by now.
    if (server->oks.load() != opens) {
      Fail(&result, std::to_string(server->oks.load()) + " of " +
                        std::to_string(opens) + " opens acknowledged");
      result.failed += opens - server->oks.load();
    }
    return server;
  };
  std::unique_ptr<ServerSession> session = set_up();
  if (session == nullptr) return result;
  Ledger ledger(streams, w);
  ledger.Register(setup, kSetupPhase, 0);
  ledger.Collect(session.get(), &result);

  // --- Rounds: lo, hi, saturation, training, offline scoring --------------
  std::vector<std::string> reload_paths = {ctx.artifact_copy, ctx.artifact};
  size_t reloads_scripted = 0;
  std::vector<int64_t> admin_sent_ns;
  auto script = [&](double rate, double seconds, const std::string& purpose) {
    Rng rng = MakeRng(ctx.seed, purpose.c_str());
    return TrafficScript(wl, streams, test, rate, seconds, &rng, reload_paths,
                         &reloads_scripted, &next_index);
  };
  auto fixed_rate = [&](const char* name, double rate, int round, int id) {
    const double seconds =
        kRunSeconds * (id == kLoPhase ? kLoShare : kHiShare) / kRounds;
    PhaseOutcome out = RunPhase(
        session.get(), &ledger,
        script(rate, seconds, std::string(name) + std::to_string(round)), id,
        seconds, &admin_sent_ns, &result);
    const double lateness = Quantile(out.lateness_ms, 0.99);
    const std::vector<PhaseOutcome> one = {out};
    std::printf("# %s %s %.0f wps, round %d: %zu windows, p50 %.3f ms, "
                "p90 %.3f ms, p99 %.3f ms, generator lateness p99 %.3f ms\n",
                wl.name, name, rate, round + 1, out.latency.size(),
                IntervalQuantile(one, 0.5, wl.reload_period_s),
                IntervalQuantile(one, 0.9, wl.reload_period_s),
                IntervalQuantile(one, 0.99, wl.reload_period_s), lateness);
    if (!out.complete) {
      Fail(&result, std::string(name) + " phase did not complete");
    } else if (lateness > kMaxLatenessMs) {
      // Latency is timed from the due time, so a late generator inflates
      // it; the phase still counts, but the reader is told.
      std::printf("# %s %s phase INVALID: generator lateness p99 %.3f ms "
                  "over %.1f ms\n",
                  wl.name, name, lateness, kMaxLatenessMs);
    }
    return out;
  };

  // caee_train at the workload's model shape, seeded by the run: every
  // artifact it writes must be the same bytes.
  std::vector<double> train_s;
  std::string first_artifact;
  int train_runs = 0;
  auto train_round = [&](int round) {
    for (double spent = 0.0; RunAgain(train_runs, train_s, spent,
                                      kMinTrainRuns, kTrainBudgetS, round);) {
      const std::string out = ctx.results_dir + "/tmp/train-" +
                              std::to_string(train_runs++) + ".caee";
      std::vector<std::string> argv = {ctx.train_bin};
      for (const std::string& f :
           TrainFlags(spec, spec.train_scale, kTrainEpochs)) {
        argv.push_back(f);
      }
      for (const std::string& f :
           {std::string("--seed"), std::to_string(ctx.seed),
            std::string("--threads"), std::to_string(kTrainThreads),
            std::string("--output"), out}) {
        argv.push_back(f);
      }
      ++result.attempted;
      const int64_t t0 = NowNs();
      const int rc = RunCommand(argv, LogPath(ctx, "train"));
      const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
      spent += elapsed;
      if (rc != 0) {
        Fail(&result, "caee_train exited " + std::to_string(rc));
        ++result.failed;
        continue;
      }
      train_s.push_back(elapsed);
      const std::string bytes = ReadFileBytes(out);
      std::remove(out.c_str());
      if (first_artifact.empty()) {
        first_artifact = bytes;
      } else if (bytes != first_artifact) {
        Fail(&result, "caee_train artifacts of one seed differ");
      }
    }
  };

  // Offline batch scoring of a whole test split.
  auto offline = caee::data::MakeDataset(spec.dataset, spec.offline_scale,
                                         kArtifactSeed);
  if (!offline.ok()) {
    Fail(&result, "cannot make the offline dataset");
    return result;
  }
  const double offline_windows =
      static_cast<double>(offline->test.length() - w + 1);
  std::vector<double> offline_s;
  ref.ensemble->set_num_threads(kTrainThreads);
  auto offline_round = [&](int round) {
    for (double spent = 0.0;
         RunAgain(static_cast<int>(offline_s.size()), offline_s, spent,
                  kMinOfflineCalls, kOfflineBudgetS, round);) {
      const int64_t t0 = NowNs();
      auto scores = ref.ensemble->Score(offline->test);
      const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
      spent += elapsed;
      if (!scores.ok()) {
        Fail(&result, "offline Score failed");
        return;
      }
      offline_s.push_back(elapsed);
    }
  };

  // Saturation ignores the schedule, so its script carries no reloads: the
  // writer sends them on the wall clock instead, one per reload period,
  // and cuts the rate samples at them.
  const double saturation_s = kRunSeconds * kSaturationShare / kRounds;
  const std::vector<std::string> no_reloads;
  auto saturation_script = [&](int round) {
    Rng rng = MakeRng(ctx.seed,
                      ("saturation" + std::to_string(round)).c_str());
    return TrafficScript(wl, streams, test, wl.offer_wps, saturation_s, &rng,
                         no_reloads, &reloads_scripted, &next_index);
  };
  std::function<std::string()> reload;
  double sample_s = kSaturationSampleS;
  if (wl.reload_period_s > 0.0) {
    sample_s = wl.reload_period_s;
    reload = [&] {
      Script frame;
      AppendFrame(&frame,
                  fr::MakeReloadFrame(
                      reload_paths[reloads_scripted++ % reload_paths.size()]),
                  0, -1, 0);
      return frame.bytes;
    };
  }
  std::vector<PhaseOutcome> lo, hi;
  std::vector<double> saturation_samples;
  for (int round = 0; round < kRounds; ++round) {
    lo.push_back(fixed_rate("lo", wl.lo_wps, round, kLoPhase));
    hi.push_back(fixed_rate("hi", wl.hi_wps, round, kHiPhase));
    const std::vector<double> rates = Saturate(
        session.get(), &ledger,
        saturation_script(round), kSaturationPhase, saturation_s,
        sample_s, reload, &admin_sent_ns, &next_index, &result);
    if (rates.empty()) Fail(&result, "the saturation backlog never drained");
    std::printf("# %s saturation, round %d: %zu samples, windows/s scored "
                "median %.0f, best %.0f\n",
                wl.name, round + 1, rates.size(), Median(rates), Largest(rates));
    saturation_samples.insert(saturation_samples.end(), rates.begin(),
                              rates.end());
    train_round(round);
    offline_round(round);
    // More set-ups on servers of their own, shut down at once.
    for (int k = 0; k < kSetupsPerRound; ++k) {
      std::unique_ptr<ServerSession> server = set_up();
      if (server != nullptr && server->Shutdown() != 0) {
        Fail(&result, "caee_serve exited non-zero after set-up");
        ++result.failed;
      }
    }
  }

  auto print_times = [&](const char* what, const std::vector<double>& v) {
    std::printf("# %s %s (s):", wl.name, what);
    for (const double t : v) std::printf(" %.4f", t);
    std::printf("\n");
  };
  print_times("set-ups", setup_s);
  print_times("training runs", train_s);
  print_times("offline Score calls", offline_s);

  // --- Health frame: generation must equal 1 + acknowledged reloads ------
  // caee_serve writes ok and health responses without flushing its output,
  // so the request is followed by a sentinel observation and a flush
  // request, whose score pushes the responses out.
  Script health;
  AppendFrame(&health, fr::MakeHealthFrame(), 0, -1, 0);
  AppendObservation(&health, test, streams, streams.sentinel, &next_index, 0);
  AppendFrame(&health, fr::MakeFlushFrame(), 0, -1, 0);
  ledger.Register(health, kHealthPhase, 0);
  if (!session->Send(health.bytes, 0, health.bytes.size()) ||
      !WaitUntil([&] { return session->health_frames.load() >= 1; }, 10.0)) {
    Fail(&result, "no health frame answered");
  }
  // Every admin frame sent before it was a reload (saturation sends only a
  // prefix of its script, so the frames sent are what count).
  const size_t reloads_sent = admin_sent_ns.size();
  const std::vector<int64_t> acked_ns = session->reload_acks();
  const size_t acks = acked_ns.size();
  const int64_t generation = session->health().generation;
  result.attempted += static_cast<int64_t>(reloads_sent);
  if (acks != reloads_sent) {
    Fail(&result, std::to_string(acks) + " of " +
                      std::to_string(reloads_sent) + " reloads acked ok");
    result.failed += static_cast<int64_t>(reloads_sent) -
                     static_cast<int64_t>(acks);
  } else if (reloads_sent > 0) {
    std::vector<double> reload_ms;
    for (size_t i = 0; i < reloads_sent; ++i) {
      reload_ms.push_back(
          static_cast<double>(acked_ns[i] - admin_sent_ns[i]) / 1e6);
    }
    std::printf("# %s reload round trip under traffic: median %.3f ms over "
                "%zu reloads\n",
                wl.name, Median(reload_ms), reload_ms.size());
  }
  if (generation != 1 + static_cast<int64_t>(acks)) {
    Fail(&result, "health frame reports generation " +
                      std::to_string(generation) + " after " +
                      std::to_string(acks) + " reloads");
  }

  const double rss_mb = static_cast<double>(session->VmHwmKb()) / 1024.0;
  if (session->Shutdown() != 0) {
    Fail(&result, "caee_serve exited non-zero at end of input");
    ++result.failed;
  }
  ledger.Collect(session.get(), &result);
  result.failed += session->errors.load() + session->backpressured.load();
  if (session->wire_error.load()) Fail(&result, "undecodable response frame");
  int64_t missing = 0;
  for (const Window& win : ledger.windows()) missing += win.count == 0;
  result.attempted += ledger.size();
  result.failed += missing;
  if (missing > 0) {
    std::cerr << "caee_bench: " << missing << " windows never scored\n";
  }
  // Verification is not timed: it may use every core.
  ref.ensemble->set_num_threads(0);
  Verify(ctx, ledger, streams, test, ref, &result);

  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"p50_ms_lo", IntervalQuantile(lo, 0.5, wl.reload_period_s), "ms"},
      {"p90_ms_lo", IntervalQuantile(lo, 0.9, wl.reload_period_s), "ms"},
      {"p50_ms_hi", IntervalQuantile(hi, 0.5, wl.reload_period_s), "ms"},
      {"p90_ms_hi", IntervalQuantile(hi, 0.9, wl.reload_period_s), "ms"},
      {"saturation_wps", Largest(saturation_samples), "1/s"},
      {"rss_mb", rss_mb, "MiB"},
      {"train_s", Smallest(train_s), "s"},
      {"offline_wps", offline_windows / Smallest(offline_s), "1/s"},
  };
  return result;
}

}  // namespace caee_bench
