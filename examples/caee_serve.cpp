// caee_serve: the ONLINE half of the train/serve split (paper Sec. 4.2.7).
//
// Loads an artifact written by caee_train in a fresh process — no access to
// the training data or code path — and scores observations as they arrive:
//
//   caee_train --synthetic SMD --output model.caee --dump-input train.csv
//   caee_serve --model model.caee --input train.csv      # one stream
//   caee_serve --model model.caee --streams [--binary]   # many streams
//
// Every mode runs ONE request loop over serve::ServingEngine. A codec turns
// the input into request frames — CSV observations of stream 0 by default,
// the text line protocol with --streams, the binary framing of
// docs/protocol.md with --binary — serve::Dispatcher (src/serve/
// dispatcher.h) makes the engine call each request maps to, and the codec
// writes the scores and replies back. Single-stream mode is the engine
// serving one stream with batch size 1 and no deadline, so every window
// scores as its observation arrives; --expect-scores checks those scores
// against caee_train's offline batch scores (the round-trip CI runs).
//
// --encode-frames / --decode-frames run the text codec's two halves alone:
// `caee_serve --encode-frames | caee_serve --streams --binary | caee_serve
// --decode-frames` prints exactly what the text server prints. Sharding,
// batching, backpressure, hot-swap reloads, drift and health monitoring and
// the graceful SIGTERM drain are in docs/serving.md and docs/operations.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.h"
#include "core/persistence.h"
#include "serve/dispatcher.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "serve/text_protocol.h"

using namespace caee;

namespace {

namespace fr = serve::framing;

const char kUsage[] =
    "usage: caee_serve --model model.caee [--input obs.csv] [--threads T]\n"
    "                  [--threshold-policy static|spot]\n"
    "                  [--expect-scores scores.txt [--tolerance X]]\n"
    "                  [--streams [--max-batch N] [--flush-ms MS]\n"
    "                   [--shards S] [--max-pending N] [--binary]\n"
    "                   [--drift-threshold X [--drift-clear Y]]\n"
    "                   [--health [--health-shift X] [--health-dispersion X]\n"
    "                    [--health-nonfinite X] [--health-alert X]\n"
    "                    [--probation N]]]\n"
    "       caee_serve --encode-frames | --decode-frames   (no --model)\n"
    "  Default mode reads comma-separated observations from --input\n"
    "  (default: stdin) and prints `index,score,flag` per scored\n"
    "  observation (flag=1 above the calibrated threshold; a non-finite\n"
    "  score always flags).\n"
    "  --threshold-policy picks how verdicts are made (default static):\n"
    "  `spot` adapts the threshold online per stream via streaming\n"
    "  Peaks-Over-Threshold and needs an artifact trained with --spot\n"
    "  (docs/thresholds.md).\n"
    "  --expect-scores cross-checks the streaming scores against offline\n"
    "  batch scores and fails on mismatch.\n"
    "  --streams serves many sessions at once: lines are\n"
    "  `open,<id>[,static|spot]`, `close,<id>`, `<id>,v1,v2,...`, or the\n"
    "  admin line `reload,<path>` (hot-swap the serving artifact with zero\n"
    "  downtime; a rejected candidate keeps the old one serving —\n"
    "  docs/operations.md); output is `stream,index,score,flag`. Sessions\n"
    "  are sharded across --shards (default 1) independent engine\n"
    "  shards; ready windows from different streams of a shard are\n"
    "  scored in one batched forward pass (<= --max-batch windows,\n"
    "  default 8); --flush-ms (default 50,\n"
    "  0 = off) bounds the wait of a partially filled batch.\n"
    "  --binary swaps the text protocol for the length-prefixed binary\n"
    "  framing of docs/protocol.md (request frames in, response frames\n"
    "  out); --max-pending N (default 0 = unbounded) arms per-shard\n"
    "  admission control, answered with backpressure frames.\n"
    "  --drift-threshold X arms the drift -> repair escalation: once the\n"
    "  |exceed-rate shift| drift statistic exceeds X an advisory naming\n"
    "  caee_repair is printed to stderr, once per excursion\n"
    "  (re-arming below --drift-clear Y, default X/2). Needs a\n"
    "  SPOT-calibrated artifact (docs/operations.md).\n"
    "  --health arms unsupervised model-health monitoring against the\n"
    "  artifact's calibration reference (needs caee_train --health):\n"
    "  reload candidates are canary-judged on retained live windows before\n"
    "  any shard switches, every successful swap starts a probation of\n"
    "  --probation N scored windows (default 512) during which a\n"
    "  model-degradation verdict rolls back to the last-known-good\n"
    "  generation automatically, and health excursions land on stderr.\n"
    "  --health-shift/--health-dispersion/--health-nonfinite/\n"
    "  --health-alert override the per-signal thresholds\n"
    "  (docs/operations.md). The admin line `health` (or a health frame in\n"
    "  binary mode) reports the live gauges.\n"
    "  SIGTERM/SIGINT shut down gracefully: intake stops, every shard is\n"
    "  drained, and the process exits 0.\n"
    "  --encode-frames converts text-protocol lines on stdin to request\n"
    "  frames on stdout; --decode-frames converts response frames on\n"
    "  stdin back to text lines. Neither needs a model.\n";

int Fail(const Status& status) {
  std::cerr << "caee_serve: " << status << "\n";
  return 1;
}

// Graceful shutdown (docs/operations.md): SIGTERM/SIGINT set a flag the
// request loop treats as end of input, so the normal drain and summary
// run and the process exits 0. The handler is installed WITHOUT
// SA_RESTART on purpose — a read blocked on a quiet stdin must come back
// with EINTR (reads as EOF), or intake would never stop.

volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

void InstallShutdownHandler() {
#ifndef _WIN32
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
#endif
}

// Flags only multi-stream serving takes.
bool HasStreamsFlag(const cli::Args& args) {
  return args.Has("max-batch") || args.Has("flush-ms") || args.Has("shards") ||
         args.Has("max-pending") || args.Has("binary") ||
         args.Has("drift-threshold") || args.Has("drift-clear") ||
         args.Has("health") || args.Has("health-shift") ||
         args.Has("health-dispersion") || args.Has("health-nonfinite") ||
         args.Has("health-alert") || args.Has("probation");
}

// Prefix a codec error with where it happened: `line 12: ...`.
Status At(const char* unit, int64_t n, const Status& status) {
  return Status(status.code(), std::string(unit) + " " + std::to_string(n) +
                                   ": " + status.message());
}

// --expect-scores: the offline batch scores single-stream output must
// reproduce.
struct ExpectedScores {
  std::vector<double> scores;
  double tolerance = 0.0;
  int64_t window = 0;  // the model's w: the first w-1 scores are not served
  int64_t mismatches = 0;
  double worst_diff = 0.0;

  Status Check(const serve::StreamScore& s) {
    // Batch scores cover every observation, but the first w-1 are scored
    // from the first window only in the batch policy (Fig. 10) and are
    // unavailable while streaming warms up — so compare from w-1 onward.
    if (s.index >= static_cast<int64_t>(scores.size())) {
      return Status::InvalidArgument(
          "more observations than expected scores");
    }
    const double want = scores[static_cast<size_t>(s.index)];
    const double diff = std::fabs(s.score - want);
    if (!(diff <= tolerance)) {
      ++mismatches;
      worst_diff = std::max(worst_diff, diff);
      if (mismatches <= 5) {
        std::cerr << "MISMATCH at " << s.index << ": streaming " << s.score
                  << " vs batch " << want << "\n";
      }
    }
    return Status::OK();
  }

  int Verdict(int64_t scored) const {
    if (mismatches > 0) {
      std::cerr << mismatches << " streaming/batch mismatches (worst |diff| "
                << worst_diff << ")\n";
      return 1;
    }
    // Guard against a vacuous pass: every expected score past warm-up must
    // actually have been compared (a truncated --input would otherwise
    // report success after verifying only a prefix).
    const int64_t verifiable =
        static_cast<int64_t>(scores.size()) - (window - 1);
    if (scored == 0 || scored < verifiable) {
      std::cerr << "only " << scored << " of " << verifiable
                << " expected post-warm-up scores were verified (input or "
                   "expected-scores file truncated?)\n";
      return 1;
    }
    std::cerr << "streaming scores reproduce the offline batch scores ("
              << scored << " observations, tolerance " << tolerance << ")\n";
    return 0;
  }
};

// The wire codec of one serving mode: it reads requests as frames and
// writes what serve::Dispatcher hands back.
//   kBinary        frames both ways (docs/protocol.md). Rejections are
//                  answered; a read error is fatal, because a byte stream
//                  cannot resync past corruption.
//   kText          request lines (serve/text_protocol.h), score lines out.
//   kSingleStream  observation lines of stream 0, `index,score,flag` out,
//                  checked against --expect-scores if given.
// The line modes cannot answer a rejection, so a tenant error ends the run
// with its line number — except a rejected reload, reported on stderr
// while the old generation keeps serving. Acks print nothing.
class Codec : public serve::ResponseSink {
 public:
  enum class Mode { kBinary, kText, kSingleStream };

  Codec(Mode mode, std::istream& in, ExpectedScores* expected)
      : mode_(mode), in_(in), expected_(expected) {}
  // The deadline flusher thread holds its address.
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  /// \brief Read the next request; *eof at the end of input.
  Status Read(fr::Frame* request, bool* eof) {
    *eof = false;
    if (mode_ == Mode::kBinary) {
      const Status status = fr::ReadFrame(in_, request, eof);
      if (!status.ok()) return At("frame", count_, status);
      count_ += !*eof;
      return Status::OK();
    }
    std::string line;
    while (std::getline(in_, line)) {
      ++count_;
      if (line.empty()) continue;
      const Status status =
          mode_ == Mode::kText ? serve::text::ParseRequest(line, request)
                               : serve::text::ParseObserve(line, 0, request);
      if (!status.ok()) return At("line", count_, status);
      request_type_ = request->frame_type();
      return Status::OK();
    }
    *eof = true;
    return Status::OK();
  }

  // Scores come from the request loop AND the deadline flusher: one lock
  // keeps output from interleaving and makes this the summary's one tally
  // point. Output is flushed after a batch of scores, never after a reply.
  void Scores(const std::vector<serve::StreamScore>& scores) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : scores) {
      ++scored_;
      alerts_ += s.flag;
      if (mode_ == Mode::kBinary) {
        fr::WriteFrame(std::cout, fr::MakeScoreFrame(s));
      } else if (mode_ == Mode::kText) {
        serve::text::WriteScore(std::cout, s);
      } else {
        std::cout << s.index << "," << s.score << "," << (s.flag ? 1 : 0)
                  << "\n";
        if (expected_ != nullptr) SetFatal(expected_->Check(s));
      }
    }
    std::cout.flush();
  }

  void Reply(const fr::Frame& reply, const Status& status) override {
    std::lock_guard<std::mutex> lock(mu_);
    backpressured_ += reply.frame_type() == fr::FrameType::kBackpressure;
    if (mode_ == Mode::kBinary) {
      fr::WriteFrame(std::cout, reply);
    } else if (status.ok()) {
      // An ok prints nothing; a health status the line --decode-frames
      // prints.
      serve::text::WriteResponse(reply, std::cout, std::cerr);
    } else if (request_type_ == fr::FrameType::kReload) {
      std::cerr << "caee_serve: " << status << "\n";
    } else {
      SetFatal(At("line", count_, status));
    }
  }

  void Reloaded(int64_t generation, const std::string& path) override {
    std::cerr << "reloaded: now serving generation " << generation
              << " from " << path << "\n";
  }

  /// \brief The first error that ends the run, or OK: a tenant error
  /// under the line modes' policy, a failed --expect-scores check, or a
  /// failed deadline flush.
  Status fatal() {
    std::lock_guard<std::mutex> lock(fatal_mu_);
    return fatal_;
  }
  void SetFatal(const Status& status) {
    std::lock_guard<std::mutex> lock(fatal_mu_);
    if (fatal_.ok()) fatal_ = status;
  }

  // End-of-run summary on stderr, once every writer is joined. Returns the
  // exit code, which only a failed --expect-scores check makes non-zero.
  int Summarize(const serve::ServingEngine& engine) const {
    const serve::EngineStats stats = engine.Stats();
    if (mode_ == Mode::kSingleStream) {
      std::cerr << "scored " << scored_ << " observations, " << alerts_
                << " flagged, " << stats.non_finite_scores
                << " non-finite scores ("
                << core::ThresholdPolicyName(
                       engine.config().threshold_policy)
                << " policy)\n";
      return expected_ != nullptr ? expected_->Verdict(scored_) : 0;
    }
    std::cerr << "scored " << scored_ << " windows across streams, "
              << alerts_ << " flagged, " << stats.non_finite_scores
              << " non-finite scores, " << backpressured_
              << " pushes backpressured (" << engine.num_streams()
              << " sessions still open at EOF, " << engine.num_shards()
              << " shards)\n";
    if (stats.reloads + stats.failed_reloads > 0) {
      std::cerr << "generation " << stats.generation << " live after "
                << stats.reloads << " reload(s), " << stats.failed_reloads
                << " rejected\n";
    }
    if (engine.spot() != nullptr) {
      std::cerr << "drift: |exceed-rate shift| " << stats.drift << " over "
                << stats.drift_window << " recent scores vs the calibration "
                << "baseline (docs/thresholds.md)\n";
    }
    if (engine.config().health.enabled) {
      std::cerr << "health: " << stats.canary_rejections
                << " canary rejection(s), " << stats.rollbacks
                << " rollback(s), gauges over " << stats.health_window
                << " recent scores: score-shift " << stats.score_shift
                << ", dispersion-ratio " << stats.dispersion_ratio
                << ", non-finite-rate " << stats.non_finite_rate
                << ", alert-rate " << stats.alert_rate
                << " (docs/operations.md)\n";
    }
    return 0;
  }

 private:
  const Mode mode_;
  std::istream& in_;
  ExpectedScores* expected_;  // single-stream --expect-scores, or null
  int64_t count_ = 0;         // lines or frames read
  fr::FrameType request_type_ = fr::FrameType::kObserve;
  std::mutex mu_;
  int64_t scored_ = 0, alerts_ = 0, backpressured_ = 0;  // guarded by mu_
  // Its own leaf lock (taken after mu_ when both are held): the request
  // loop checks it after every request and must not wait behind the
  // deadline flusher's output.
  std::mutex fatal_mu_;
  Status fatal_;  // guarded by fatal_mu_
};

// Drift and health advisories on stderr, polled after every request and
// on every flusher tick. Each signal's hysteresis fires an excursion once,
// so polling from both threads cannot double-report. A rollback notice
// names the restored generation so the operator knows the bad candidate is
// already out of service.
void PollMonitors(serve::ServingEngine& engine) {
  const auto event = engine.PollHealth();
  if (!event.has_value()) return;
  std::cerr << "health alert ("
            << serve::HealthVerdictName(event->verdict) << "): "
            << serve::HealthSignalName(event->signal) << " " << event->value
            << " over " << event->window
            << " recent scores on generation " << event->generation
            << " exceeds " << event->threshold;
  if (event->rolled_back) {
    std::cerr << "; rolled back to last-known-good generation "
              << event->rolled_back_to << " (docs/operations.md)\n";
  } else if (event->verdict == serve::HealthVerdict::kDataDrift) {
    std::cerr << "; the DATA has likely shifted — repair with caee_repair "
                 "and hot-swap the result via `reload,<path>` "
                 "(docs/operations.md)\n";
  } else {
    std::cerr << "; the MODEL looks degraded — hot-swap a known-good "
                 "artifact via `reload,<path>` (docs/operations.md)\n";
  }
}

// Deadline timer: input can stall with a partially filled batch pending;
// this thread keeps the flush-deadline promise regardless. A failing
// flush is not swallowed: it becomes the codec's fatal error, which the
// request loop reports, and the timer stops retrying.
class DeadlineFlusher {
 public:
  DeadlineFlusher(serve::ServingEngine& engine, Codec& codec) {
    const int64_t deadline_ms = engine.config().flush_deadline_ms;
    if (deadline_ms <= 0) return;
    thread_ = std::thread([this, &engine, &codec, deadline_ms] {
      const auto tick =
          std::chrono::milliseconds(std::max<int64_t>(1, deadline_ms / 2));
      std::vector<serve::StreamScore> results;
      while (!done_.load()) {
        std::this_thread::sleep_for(tick);
        results.clear();
        const Status status = engine.FlushIfExpired(&results);
        if (!status.ok()) {
          codec.SetFatal(Status(status.code(),
                                "deadline flush failed: " + status.message()));
          return;
        }
        if (!results.empty()) codec.Scores(results);
        PollMonitors(engine);
      }
    });
  }
  ~DeadlineFlusher() { Stop(); }
  DeadlineFlusher(const DeadlineFlusher&) = delete;
  DeadlineFlusher& operator=(const DeadlineFlusher&) = delete;

  void Stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

StatusOr<serve::ServeConfig> ServeConfigOf(const cli::Args& args) {
  serve::ServeConfig config;
  if (!args.Has("streams")) {
    // Single-stream mode: one stream, every window scored as it arrives.
    config.max_batch = 1;
    config.flush_deadline_ms = 0;
    return config;
  }
  config.max_batch = args.GetInt("max-batch", 8);
  config.flush_deadline_ms = args.GetInt("flush-ms", 50);
  config.num_shards = args.GetInt("shards", 1);
  config.max_pending = args.GetInt("max-pending", 0);
  config.drift_threshold = args.GetDouble("drift-threshold", 0.0);
  config.drift_clear = args.GetDouble("drift-clear", 0.0);
  if (config.max_batch < 1) {
    return Status::InvalidArgument("--max-batch must be >= 1");
  }
  if (config.num_shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  if (config.max_pending < 0) {
    return Status::InvalidArgument("--max-pending must be >= 0");
  }
  config.health.enabled = args.Has("health");
  config.health.shift_threshold =
      args.GetDouble("health-shift", config.health.shift_threshold);
  config.health.dispersion_threshold =
      args.GetDouble("health-dispersion", config.health.dispersion_threshold);
  config.health.non_finite_threshold =
      args.GetDouble("health-nonfinite", config.health.non_finite_threshold);
  config.health.alert_threshold =
      args.GetDouble("health-alert", config.health.alert_threshold);
  config.health.probation_windows =
      args.GetInt("probation", config.health.probation_windows);
  if (!config.health.enabled &&
      (args.Has("health-shift") || args.Has("health-dispersion") ||
       args.Has("health-nonfinite") || args.Has("health-alert") ||
       args.Has("probation"))) {
    return Status::InvalidArgument(
        "--health-shift/--health-dispersion/--health-nonfinite/"
        "--health-alert/--probation require --health");
  }
  // std::stod parses "nan" and "inf". A NaN threshold compares false
  // against every gauge and an infinite one is never exceeded, so either
  // would arm a monitor that can never fire.
  for (const char* flag :
       {"drift-threshold", "drift-clear", "health-shift", "health-dispersion",
        "health-nonfinite", "health-alert"}) {
    const double value = args.GetDouble(flag, 1.0);
    if (!std::isfinite(value) || value <= 0.0) {
      return Status::InvalidArgument(std::string("--") + flag +
                                     " must be a finite number > 0");
    }
  }
  if (args.Has("drift-clear") &&
      config.drift_clear >= config.drift_threshold) {
    return Status::InvalidArgument(
        "--drift-clear must be in (0, drift-threshold) — it is the "
        "re-arm level of the hysteresis");
  }
  if (config.health.probation_windows < 1) {
    return Status::InvalidArgument("--probation must be >= 1");
  }
  return config;
}

// The one request loop of every serving mode: read a request, dispatch
// it, poll the monitors. At end of input — or on a shutdown signal —
// every shard drains, so scores already owed are delivered, not dropped.
int Serve(serve::ServingEngine& engine, Codec& codec) {
  serve::Dispatcher dispatcher(&engine);
  DeadlineFlusher flusher(engine, codec);
  auto fail = [&](const Status& status) {
    flusher.Stop();
    return Fail(status);
  };
  fr::Frame request;
  while (!g_shutdown) {
    if (Status status = codec.fatal(); !status.ok()) return fail(status);
    bool eof = false;
    if (Status status = codec.Read(&request, &eof); !status.ok()) {
      // A read cut short by the shutdown signal (EINTR) is the signal
      // doing its job, not corruption: stop intake and drain.
      if (g_shutdown) break;
      return fail(status);
    }
    if (eof) break;
    dispatcher.Dispatch(request, &codec);
    if (Status status = codec.fatal(); !status.ok()) return fail(status);
    PollMonitors(engine);
  }

  if (g_shutdown) {
    std::cerr << "caee_serve: caught shutdown signal, draining shards\n";
  }
  std::vector<serve::StreamScore> results;
  const Status status = engine.Flush(&results);
  flusher.Stop();
  if (!status.ok()) return Fail(status);
  if (Status parked = codec.fatal(); !parked.ok()) return Fail(parked);
  if (!results.empty()) codec.Scores(results);
  std::cout.flush();
  if (Status status = codec.fatal(); !status.ok()) return Fail(status);
  return codec.Summarize(engine);
}

// --encode-frames / --decode-frames: the two halves of the text codec
// alone, text protocol <-> binary framing, no model involved.
int Translate(bool encode, std::istream& in) {
  Codec codec(encode ? Codec::Mode::kText : Codec::Mode::kBinary, in,
              nullptr);
  fr::Frame frame;
  int64_t errors = 0;
  while (true) {
    bool eof = false;
    Status status = codec.Read(&frame, &eof);
    if (!status.ok()) return Fail(status);
    if (eof) break;
    if (encode) {
      fr::WriteFrame(std::cout, frame);
      continue;
    }
    status = serve::text::WriteResponse(frame, std::cout, std::cerr);
    if (!status.ok()) return Fail(status);
    errors += frame.frame_type() == fr::FrameType::kError;
  }
  std::cout.flush();
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.RejectUnknown({"model", "input", "threads", "expect-scores",
                      "tolerance", "streams", "max-batch", "flush-ms",
                      "shards", "max-pending", "binary", "threshold-policy",
                      "drift-threshold", "drift-clear", "health",
                      "health-shift", "health-dispersion", "health-nonfinite",
                      "health-alert", "probation", "encode-frames",
                      "decode-frames", "help"},
                     kUsage);
  if (args.Has("help")) {
    std::cerr << kUsage;
    return 0;
  }
  const bool translate =
      args.Has("encode-frames") || args.Has("decode-frames");
  if (translate) {
    // Translator modes are pure wire-format conversions — no model, no
    // engine. They reject every serving flag so a typo'd serving
    // invocation cannot silently degrade into a translator.
    if (HasStreamsFlag(args) || args.Has("model") || args.Has("threads") ||
        args.Has("expect-scores") || args.Has("tolerance") ||
        args.Has("streams") || args.Has("threshold-policy")) {
      std::cerr << "--encode-frames/--decode-frames take only --input\n"
                << kUsage;
      return 2;
    }
    if (args.Has("encode-frames") && args.Has("decode-frames")) {
      std::cerr << "pick one of --encode-frames / --decode-frames\n"
                << kUsage;
      return 2;
    }
  } else if (!args.Has("model")) {
    std::cerr << kUsage;
    return 2;
  } else if (!args.Has("streams") && HasStreamsFlag(args)) {
    std::cerr << "--max-batch/--flush-ms/--shards/--max-pending/--binary/"
                 "--drift-threshold/--drift-clear/--health (and its knobs) "
                 "require --streams\n"
              << kUsage;
    return 2;
  } else if (args.Has("streams") &&
             (args.Has("expect-scores") || args.Has("tolerance"))) {
    // Refusing beats silently skipping the cross-check: a "verification"
    // run that verified nothing must not exit 0.
    std::cerr << "--expect-scores/--tolerance are single-stream only\n"
              << kUsage;
    return 2;
  }

  std::ifstream file;
  if (args.Has("input")) {
    // Binary so frame bytes pass through untranslated; harmless for text.
    file.open(args.Get("input", ""), std::ios::binary);
    if (!file) return Fail(Status::IOError("cannot open input file"));
  }
  std::istream& in = args.Has("input") ? file : std::cin;
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  if (translate) return Translate(args.Has("encode-frames"), in);

  auto loaded = core::LoadEnsemble(args.Get("model", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  core::CaeEnsemble& ensemble = *loaded->ensemble;
  ensemble.set_num_threads(args.GetInt("threads", 0));

  core::ThresholdPolicy policy = core::ThresholdPolicy::kStatic;
  if (args.Has("threshold-policy")) {
    auto parsed =
        core::ParseThresholdPolicy(args.Get("threshold-policy", ""));
    if (!parsed.ok()) return Fail(parsed.status());
    policy = *parsed;
  }
  if (policy == core::ThresholdPolicy::kSpot && !loaded->spot.has_value()) {
    return Fail(Status::FailedPrecondition(
        "--threshold-policy spot needs SPOT init params in the artifact; "
        "retrain with caee_train --spot (docs/thresholds.md)"));
  }
  if (args.GetDouble("drift-threshold", 0.0) > 0.0 &&
      !loaded->spot.has_value()) {
    // Drift is measured against the SPOT calibration baseline — without
    // one the statistic is identically zero and the monitor could never
    // fire. Refusing beats a silent no-op "armed" monitor.
    return Fail(Status::FailedPrecondition(
        "--drift-threshold needs SPOT init params in the artifact; "
        "retrain with caee_train --spot (docs/operations.md)"));
  }
  if (args.Has("health") && !loaded->health.has_value()) {
    // Health is judged against the artifact's own calibration reference —
    // without one there is nothing to compare live traffic to. Refusing
    // beats a monitor that silently can never fire.
    return Fail(Status::FailedPrecondition(
        "--health needs a model-health reference in the artifact; "
        "retrain with caee_train --health (docs/operations.md)"));
  }

  std::cerr << "loaded ensemble: " << ensemble.num_models() << " models, "
            << "window " << ensemble.config().window << ", "
            << ensemble.input_dim() << " dims"
            << (loaded->threshold
                    ? ", threshold " + std::to_string(*loaded->threshold)
                    : ", no threshold (flag always 0)")
            << (loaded->spot ? ", spot-calibrated" : "")
            << (loaded->health ? ", health-calibrated" : "") << "\n";

  InstallShutdownHandler();
  auto config = ServeConfigOf(args);
  if (!config.ok()) return Fail(config.status());
  config->threshold_policy = policy;
  ExpectedScores expected;
  if (args.Has("expect-scores")) {
    std::ifstream scores_in(args.Get("expect-scores", ""));
    if (!scores_in) {
      return Fail(Status::IOError("cannot open expected-scores file"));
    }
    double value = 0.0;
    while (scores_in >> value) expected.scores.push_back(value);
    if (expected.scores.empty()) {
      return Fail(Status::InvalidArgument(
          "expected-scores file has no scores — nothing would be verified"));
    }
    expected.tolerance = args.GetDouble("tolerance", 0.0);
    expected.window = ensemble.config().window;
  }

  serve::ServingEngine engine(&ensemble, config.value(), loaded->threshold,
                              loaded->spot, loaded->health);
  Codec::Mode mode = Codec::Mode::kText;
  if (!args.Has("streams")) {
    mode = Codec::Mode::kSingleStream;
    if (Status opened = engine.OpenStream(0); !opened.ok()) {
      return Fail(opened);
    }
  } else if (args.Has("binary")) {
    mode = Codec::Mode::kBinary;
  }
  Codec codec(mode, in, args.Has("expect-scores") ? &expected : nullptr);
  return Serve(engine, codec);
}
