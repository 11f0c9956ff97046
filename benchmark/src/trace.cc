// Traced half of caee_bench: where one scored window's time goes.
//
// The workload's high-rate traffic is replayed in-process on a seeded
// schedule, through the same calls caee_serve makes per request:
// ReadFrame -> dispatch (Push / ReloadArtifact) -> encode responses ->
// PollDrift / PollHealth, with FlushIfExpired on the deadline flusher's
// tick. The replay runs twice: once with only a busy-time clock around
// each request (the untraced reference) and once with a span around every
// call into a layer. The spans stay in memory; the run writes the table
// and a sampled Chrome trace when it ends.
//
// Scoring happens inside Push and FlushIfExpired. The link step routes the
// calls of CaeEnsemble::ScoreWindowsLastInto and of the infer plans'
// Execute through timing wrappers (below), so each serve span knows how
// much of it was scoring, measured in the same call; the serve layer's self
// time is the rest. Every scored batch is then re-scored ("shadow replay")
// to check its bits, and a sample of the batches is scored again on one
// thread, where the wrappers split the call into the embedding plan, the
// member plans and the rest; kernels::Conv1dForward is timed at the plans'
// shapes. The training layers (Fit, one autograd/optim step, calibration,
// persistence) are timed at the workload's model shape on data seeded by
// the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "autograd/ops.h"
#include "common.h"
#include "common/thread_pool.h"
#include "core/cae.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/threshold.h"
#include "data/registry.h"
#include "infer/arena.h"
#include "infer/plan.h"
#include "kernels/conv1d.h"
#include "optim/adam.h"
#include "optim/clip.h"

namespace caee_bench {
namespace {

// Nanoseconds this thread has spent inside CaeEnsemble::ScoreWindowsLastInto,
// EmbeddingPlan::Execute and CaePlan::Execute.
thread_local int64_t t_engine_score_ns = 0;
thread_local int64_t t_embed_ns = 0;
thread_local int64_t t_member_ns = 0;

}  // namespace
}  // namespace caee_bench

// benchmark/CMakeLists.txt links caee_bench with --wrap of the symbols of
//   caee::core::CaeEnsemble::ScoreWindowsLastInto(const float*, int64_t,
//       std::vector<double>*, std::vector<double>*) const,
//   caee::infer::EmbeddingPlan::Execute(const float*, int64_t, float*) const,
//   caee::infer::CaePlan::Execute(const float*, int64_t, int64_t,
//       caee::infer::Arena*, float*) const:
// every call from another object file (the serving engine's and the
// ensemble's included) lands in __wrap_<symbol>, and __real_<symbol> is the
// function itself. A member function's `this` is passed as the first
// argument, as the C++ ABI passes it.
extern "C" {
caee::Status
__real__ZNK4caee4core11CaeEnsemble20ScoreWindowsLastIntoEPKflPSt6vectorIdSaIdEES7_(
    const caee::core::CaeEnsemble* self, const float* windows, int64_t batch,
    std::vector<double>* scores, std::vector<double>* dispersions);
void __real__ZNK4caee5infer13EmbeddingPlan7ExecuteEPKflPf(
    const caee::infer::EmbeddingPlan* self, const float* s, int64_t batch,
    float* out);
void __real__ZNK4caee5infer7CaePlan7ExecuteEPKfllPNS0_5ArenaEPf(
    const caee::infer::CaePlan* self, const float* x, int64_t batch, int64_t w,
    caee::infer::Arena* arena, float* out);

caee::Status
__wrap__ZNK4caee4core11CaeEnsemble20ScoreWindowsLastIntoEPKflPSt6vectorIdSaIdEES7_(
    const caee::core::CaeEnsemble* self, const float* windows, int64_t batch,
    std::vector<double>* scores, std::vector<double>* dispersions) {
  const int64_t t0 = caee_bench::NowNs();
  caee::Status status =
      __real__ZNK4caee4core11CaeEnsemble20ScoreWindowsLastIntoEPKflPSt6vectorIdSaIdEES7_(
          self, windows, batch, scores, dispersions);
  caee_bench::t_engine_score_ns += caee_bench::NowNs() - t0;
  return status;
}

void __wrap__ZNK4caee5infer13EmbeddingPlan7ExecuteEPKflPf(
    const caee::infer::EmbeddingPlan* self, const float* s, int64_t batch,
    float* out) {
  const int64_t t0 = caee_bench::NowNs();
  __real__ZNK4caee5infer13EmbeddingPlan7ExecuteEPKflPf(self, s, batch, out);
  caee_bench::t_embed_ns += caee_bench::NowNs() - t0;
}

void __wrap__ZNK4caee5infer7CaePlan7ExecuteEPKfllPNS0_5ArenaEPf(
    const caee::infer::CaePlan* self, const float* x, int64_t batch, int64_t w,
    caee::infer::Arena* arena, float* out) {
  const int64_t t0 = caee_bench::NowNs();
  __real__ZNK4caee5infer7CaePlan7ExecuteEPKfllPNS0_5ArenaEPf(self, x, batch, w,
                                                             arena, out);
  caee_bench::t_member_ns += caee_bench::NowNs() - t0;
}
}  // extern "C"

namespace caee_bench {

namespace fr = caee::serve::framing;
using caee::serve::StreamScore;

namespace {

// Batches broken down through the plans and kernels, evenly spaced.
constexpr size_t kBreakdownBatches = 48;
// Timed repetitions of the single-call layer metrics (medians).
constexpr int kLoads = 5;
constexpr int kReloads = 5;
constexpr int kSaves = 3;
constexpr int kSteps = 12;
constexpr int kWarmSteps = 2;
// Spans written to the Chrome trace file.
constexpr size_t kTraceSpans = 20000;
// Length of each side of the pipe probe.
constexpr double kPipeSeconds = 4.0;
// Threads of the parallel Fit timed against a one-thread Fit (core.fit_s,
// common.fit_speedup); the timed caee_train runs use kTrainThreads.
constexpr int64_t kParallelFitThreads = 2;

enum SpanKind { kDecode, kPush, kFlush, kEncode, kPoll, kReload, kNumKinds };
const char* const kSpanNames[kNumKinds] = {
    "framing.decode", "serve.push", "serve.flush", "framing.encode",
    "caee_serve.poll", "serve.reload"};

struct Span {
  int64_t start;
  int64_t end;
  int64_t score_ns;      // time inside ScoreWindowsLastInto within the span
  int32_t kind;
  int32_t frame;         // request index, -1 for flusher ticks
  uint32_t first_result; // results of a push/flush span
  uint32_t num_results;
};

struct Replay {
  int64_t busy_ns = 0;  // clock around every request and flusher tick
  int64_t frames = 0;
  std::vector<Span> spans;
  std::vector<StreamScore> results;  // in delivery order
  std::vector<int64_t> pushed_ns;    // request index -> end of its Push
  int64_t wire_bytes = 0;            // request + response bytes
  size_t memory_bytes = 0;
  int64_t streams = 0;
  std::vector<double> reload_ms;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// \brief One request of the caee_serve binary loop, against an engine.
/// Returns false when the request fails.
bool Dispatch(caee::serve::ServingEngine* engine, const fr::Frame& frame,
              std::vector<StreamScore>* results, std::vector<float>* obs,
              std::vector<fr::Frame>* responses) {
  caee::Status status;
  switch (frame.frame_type()) {
    case fr::FrameType::kOpen: {
      std::optional<caee::core::ThresholdPolicy> policy;
      status = fr::ParseOpenPolicy(frame, &policy);
      if (status.ok()) {
        status = policy ? engine->OpenStream(frame.stream_id, *policy)
                        : engine->OpenStream(frame.stream_id);
      }
      responses->push_back(status.ok()
                               ? fr::MakeOkFrame(frame.stream_id)
                               : fr::MakeErrorFrame(frame.stream_id, status));
      break;
    }
    case fr::FrameType::kObserve:
      status = fr::ParseObserve(frame, obs);
      if (status.ok()) status = engine->Push(frame.stream_id, *obs, results);
      if (!status.ok()) {
        responses->push_back(fr::MakeErrorFrame(frame.stream_id, status));
      }
      break;
    case fr::FrameType::kReload: {
      std::string path;
      status = fr::ParseReload(frame, &path);
      if (status.ok()) status = engine->ReloadArtifact(path).status();
      responses->push_back(status.ok()
                               ? fr::MakeOkFrame(frame.stream_id)
                               : fr::MakeErrorFrame(frame.stream_id, status));
      break;
    }
    default:
      return false;
  }
  return status.ok();
}

void Poll(caee::serve::ServingEngine* engine) {
  if (engine->config().drift_threshold > 0.0) engine->PollDrift();
  if (engine->config().health.enabled) engine->PollHealth();
}

/// \brief Run the set-up script untimed, then the traffic script,
/// mimicking caee_serve's request loop and deadline flusher: on the
/// script's schedule, or, when `saturate_s` > 0, as fast as the loop goes
/// for at most that long.
Replay RunReplay(const RunContext& ctx, caee::core::LoadedEnsemble* art,
                 const Script& setup, const Script& traffic, bool traced,
                 double saturate_s, RunResult* result) {
  const Workload& wl = *ctx.workload;
  Replay rep;
  caee::serve::ServingEngine engine(art->ensemble.get(), ServeConfigOf(wl),
                                    art->threshold, art->spot, art->health);
  fr::Frame frame;
  std::vector<float> obs;
  std::vector<StreamScore> results;
  std::vector<fr::Frame> responses;
  std::istringstream setup_in(setup.bytes);
  for (size_t i = 0; i < setup.requests.size(); ++i) {
    bool eof = false;
    if (!fr::ReadFrame(setup_in, &frame, &eof).ok() || eof ||
        !Dispatch(&engine, frame, &results, &obs, &responses)) {
      Fail(result, "in-process set-up request " + std::to_string(i) +
                       " failed");
      return rep;
    }
  }
  engine.Flush(&results);
  results.clear();
  rep.memory_bytes = engine.MemoryBytes();
  rep.streams = engine.num_streams();

  std::istringstream in(traffic.bytes);
  std::ostringstream wire;
  rep.pushed_ns.assign(traffic.requests.size(), 0);
  rep.spans.reserve(traced ? traffic.requests.size() * 4 : 0);
  const int64_t tick = std::max<int64_t>(1, wl.flush_ms / 2) * 1000000;
  const int64_t base = NowNs() + 2000000;
  const int64_t stop = base + static_cast<int64_t>(saturate_s * 1e9);
  int64_t next_tick = base + tick;
  int64_t failures = 0;

  auto span = [&](SpanKind kind, int64_t start, int64_t end, int32_t frame_no,
                  size_t first, size_t n, int64_t score_ns = 0) {
    rep.spans.push_back(Span{start, end, score_ns, kind, frame_no,
                             static_cast<uint32_t>(first),
                             static_cast<uint32_t>(n)});
  };
  auto deliver = [&](std::vector<StreamScore>* scored) {
    for (const StreamScore& s : *scored) {
      fr::WriteFrame(wire, fr::MakeScoreFrame(s));
    }
    for (const fr::Frame& f : responses) fr::WriteFrame(wire, f);
    rep.results.insert(rep.results.end(), scored->begin(), scored->end());
    scored->clear();
    responses.clear();
  };
  auto flusher_tick = [&] {
    const int64_t t0 = NowNs();
    const size_t first = rep.results.size();
    const int64_t scored0 = t_engine_score_ns;
    failures += !engine.FlushIfExpired(&results).ok();
    const int64_t scored = t_engine_score_ns - scored0;
    const size_t n = results.size();
    const int64_t t1 = NowNs();
    deliver(&results);
    const int64_t t2 = NowNs();
    Poll(&engine);
    const int64_t t3 = NowNs();
    rep.busy_ns += t3 - t0;
    if (traced) {
      span(kFlush, t0, t1, -1, first, n, scored);
      span(kEncode, t1, t2, -1, 0, 0);
      span(kPoll, t2, t3, -1, 0, 0);
    }
    next_tick = t3 + tick;
  };

  size_t i = 0;
  for (; i < traffic.requests.size(); ++i) {
    if (saturate_s <= 0.0) {
      const int64_t due = base + traffic.requests[i].at_ns;
      while (next_tick <= due) {
        SleepUntil(next_tick);
        flusher_tick();
      }
      SleepUntil(due);
    } else {
      if (NowNs() >= stop) break;
      if (NowNs() >= next_tick) flusher_tick();
    }
    const int64_t t0 = NowNs();
    bool eof = false;
    const bool decoded = fr::ReadFrame(in, &frame, &eof).ok() && !eof;
    const int64_t t1 = NowNs();
    const size_t first = rep.results.size();
    const int64_t scored0 = t_engine_score_ns;
    failures += !decoded || !Dispatch(&engine, frame, &results, &obs,
                                      &responses);
    const int64_t scored = t_engine_score_ns - scored0;
    const size_t n = results.size();
    const int64_t t2 = NowNs();
    deliver(&results);
    const int64_t t3 = NowNs();
    Poll(&engine);
    const int64_t t4 = NowNs();
    rep.busy_ns += t4 - t0;
    rep.pushed_ns[i] = t2;
    if (traced) {
      const int32_t no = static_cast<int32_t>(i);
      span(kDecode, t0, t1, no, 0, 0);
      span(traffic.requests[i].slot < 0 ? kReload : kPush, t1, t2, no, first,
           n, scored);
      span(kEncode, t2, t3, no, 0, 0);
      span(kPoll, t3, t4, no, 0, 0);
    }
  }
  {
    // End of input: caee_serve drains every shard, so both replays score
    // every window.
    const int64_t t0 = NowNs();
    const size_t first = rep.results.size();
    const int64_t scored0 = t_engine_score_ns;
    failures += !engine.Flush(&results).ok();
    const int64_t scored = t_engine_score_ns - scored0;
    const size_t n = results.size();
    const int64_t t1 = NowNs();
    deliver(&results);
    const int64_t t2 = NowNs();
    rep.busy_ns += t2 - t0;
    if (traced) {
      span(kFlush, t0, t1, -1, first, n, scored);
      span(kEncode, t1, t2, -1, 0, 0);
    }
  }
  rep.frames = static_cast<int64_t>(i);
  rep.wire_bytes = static_cast<int64_t>(
      (i == 0 ? 0 : traffic.requests[i - 1].end) + wire.str().size());
  if (failures > 0) {
    Fail(result, std::to_string(failures) + " in-process requests failed");
  }
  result->failed += failures;

  if (traced) {
    for (int r = 0; r < kReloads; ++r) {
      const int64_t t0 = NowNs();
      if (!engine.ReloadArtifact(r % 2 == 0 ? ctx.artifact_copy : ctx.artifact)
               .ok()) {
        Fail(result, "in-process reload failed");
      }
      rep.reload_ms.push_back(Ms(NowNs() - t0));
    }
  }
  return rep;
}

/// \brief A scored batch of the replay: a run of results from one call and
/// one shard, at most max_batch long (FlushLocked's chunking).
struct Batch {
  size_t first;  // index into Replay::results
  size_t size;
};

std::vector<Batch> Batches(const Replay& rep, const Workload& wl) {
  std::vector<Batch> batches;
  const size_t shards = static_cast<size_t>(wl.shards);
  std::vector<std::vector<size_t>> by_shard(shards);
  for (size_t s = 0; s < rep.spans.size(); ++s) {
    const Span& sp = rep.spans[s];
    if (sp.num_results == 0) continue;
    for (auto& v : by_shard) v.clear();
    for (size_t r = sp.first_result; r < sp.first_result + sp.num_results;
         ++r) {
      by_shard[caee::serve::ServingEngine::ShardOf(rep.results[r].stream_id,
                                                   shards)]
          .push_back(r);
    }
    // Results of one call come shard by shard, so each shard's run is
    // contiguous; chunk it the way the shard chunked its queue.
    for (const auto& v : by_shard) {
      for (size_t at = 0; at < v.size();
           at += static_cast<size_t>(wl.max_batch)) {
        const size_t n =
            std::min(v.size() - at, static_cast<size_t>(wl.max_batch));
        batches.push_back(Batch{v[at], n});
      }
    }
  }
  return batches;
}

/// \brief MACs of one window through the embedding and every member:
/// 6L+2 k-wide convolutions and one position-wise head convolution per
/// member, and per decoder layer an attention with a D'xD' projection and
/// two w x w x D' products.
struct Macs {
  double conv = 0.0;
  double total = 0.0;
};

Macs MacsPerWindow(const caee::core::CaeEnsemble& ens) {
  const auto& cfg = ens.config();
  const double w = static_cast<double>(cfg.window);
  const double d = static_cast<double>(cfg.cae.embed_dim);
  const double k = static_cast<double>(cfg.cae.kernel);
  const double layers = static_cast<double>(cfg.cae.num_layers);
  const double m = static_cast<double>(ens.num_models());
  Macs macs;
  macs.conv = m * ((6.0 * layers + 2.0) * w * d * d * k + w * d * d);
  const double attention = m * layers * (w * d * d + 2.0 * w * w * d);
  macs.total = macs.conv + attention +
               w * static_cast<double>(ens.input_dim()) * d;
  return macs;
}

struct ConvShape {
  int64_t k;
  int64_t pad_left;
};

std::vector<ConvShape> MemberConvShapes(const caee::core::CaeConfig& cae) {
  std::vector<ConvShape> shapes;
  const int64_t k = cae.kernel;
  for (int64_t l = 0; l < cae.num_layers; ++l) {
    for (int c = 0; c < 3; ++c) shapes.push_back({k, (k - 1) / 2});  // same
  }
  for (int64_t l = 0; l < cae.num_layers; ++l) {
    for (int c = 0; c < 3; ++c) shapes.push_back({k, k - 1});  // causal
  }
  shapes.push_back({k, k - 1});
  shapes.push_back({k, k - 1});
  shapes.push_back({1, 0});
  return shapes;
}

struct TrainLayers {
  double fit_s = 0.0;
  double fit_s_t1 = 0.0;
  double save_ms = 0.0;
  double calibrate_ms = 0.0;
  double step_fwd_ms = 0.0;
  double step_bwd_ms = 0.0;
  double optim_ms = 0.0;
};

TrainLayers MeasureTraining(const RunContext& ctx, RunResult* result) {
  const ArtifactSpec& spec = *ctx.workload->artifact;
  TrainLayers out;
  auto data = caee::data::MakeDataset(spec.dataset, spec.train_scale, ctx.seed);
  if (!data.ok()) {
    Fail(result, "cannot make training data");
    return out;
  }
  const caee::ts::TimeSeries& train = data->train;

  caee::core::CaeEnsemble fitn(
      TrainConfig(spec, kTrainEpochs, ctx.seed, kParallelFitThreads));
  caee::core::CaeEnsemble fit1(TrainConfig(spec, kTrainEpochs, ctx.seed, 1));
  int64_t t0 = NowNs();
  const bool okn = fitn.Fit(train).ok();
  out.fit_s = static_cast<double>(NowNs() - t0) / 1e9;
  t0 = NowNs();
  const bool ok1 = fit1.Fit(train).ok();
  out.fit_s_t1 = static_cast<double>(NowNs() - t0) / 1e9;
  result->attempted += 2;
  if (!okn || !ok1) {
    Fail(result, "Fit failed");
    result->failed += !okn + !ok1;
    return out;
  }

  const std::string pathn = ctx.results_dir + "/tmp/fit-tn.caee";
  const std::string path1 = ctx.results_dir + "/tmp/fit-t1.caee";
  std::vector<double> save_ms;
  for (int i = 0; i < kSaves; ++i) {
    t0 = NowNs();
    if (!caee::core::SaveEnsemble(fitn, pathn).ok()) {
      Fail(result, "SaveEnsemble failed");
    }
    save_ms.push_back(Ms(NowNs() - t0));
  }
  out.save_ms = Median(save_ms);
  caee::core::SaveEnsemble(fit1, path1);
  if (ReadFileBytes(pathn) != ReadFileBytes(path1)) {
    Fail(result, "Fit with 1 and " + std::to_string(kParallelFitThreads) +
                     " threads produced different artifacts");
  }
  std::remove(pathn.c_str());
  std::remove(path1.c_str());

  // Calibration inputs come through the same calls caee_train makes; only
  // the calibration itself is timed.
  auto scores = fitn.Score(train);
  const int64_t w = fitn.config().window;
  const int64_t dims = train.dims();
  const int64_t windows = train.length() - w + 1;
  std::vector<float> buf(static_cast<size_t>(windows * w * dims));
  for (int64_t b = 0; b < windows; ++b) {
    std::memcpy(buf.data() + b * w * dims, train.row(b),
                static_cast<size_t>(w * dims) * sizeof(float));
  }
  std::vector<double> window_scores, dispersions;
  if (!scores.ok() ||
      !fitn.ScoreWindowsLastInto(buf.data(), windows, &window_scores,
                                 &dispersions)
           .ok()) {
    Fail(result, "scoring the training split failed");
    return out;
  }
  t0 = NowNs();
  caee::core::ThresholdConfig threshold_config;
  const bool calibrated =
      caee::core::CalibrateThreshold(*scores, threshold_config).ok() &&
      caee::core::CalibrateSpot(*scores, caee::core::SpotConfig()).ok() &&
      caee::core::CalibrateHealthRef(window_scores, dispersions).ok();
  out.calibrate_ms = Ms(NowNs() - t0);
  if (!calibrated) Fail(result, "calibration failed");

  // One training step of a basic model at the training batch size.
  caee::Rng rng(ctx.seed);
  caee::core::Cae model(fitn.config().cae, &rng);
  caee::optim::Adam adam(model.Parameters(), fitn.config().lr);
  const caee::Tensor x = caee::Tensor::Randn(
      {fitn.config().batch_size, w, fitn.config().cae.embed_dim}, &rng);
  std::vector<double> fwd, bwd, opt;
  for (int s = 0; s < kSteps; ++s) {
    const int64_t a = NowNs();
    caee::ag::Var target = caee::ag::Constant(x);
    caee::ag::Var loss = caee::ag::MseLoss(model.Reconstruct(target), target);
    const int64_t b = NowNs();
    adam.ZeroGrad();
    caee::ag::Backward(loss);
    const int64_t c = NowNs();
    caee::optim::ClipGradNorm(adam.params(), fitn.config().grad_clip);
    adam.Step();
    const int64_t d = NowNs();
    if (s < kWarmSteps) continue;
    fwd.push_back(Ms(b - a));
    bwd.push_back(Ms(c - b));
    opt.push_back(Ms(d - c));
  }
  out.step_fwd_ms = Median(fwd);
  out.step_bwd_ms = Median(bwd);
  out.optim_ms = Median(opt);
  return out;
}

void WriteChromeTrace(const std::string& path, const Replay& rep) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  const size_t stride = std::max<size_t>(1, rep.spans.size() / kTraceSpans);
  const int64_t origin = rep.spans.empty() ? 0 : rep.spans.front().start;
  bool first = true;
  for (size_t i = 0; i < rep.spans.size(); i += stride) {
    const Span& s = rep.spans[i];
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                  first ? "" : ",", kSpanNames[s.kind],
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace

RunResult RunTrace(const RunContext& ctx) {
  RunResult result;
  const Workload& wl = *ctx.workload;
  const ArtifactSpec& spec = *wl.artifact;

  std::vector<double> load_ms;
  caee::core::LoadedEnsemble art;
  for (int i = 0; i < kLoads; ++i) {
    const int64_t t0 = NowNs();
    auto loaded = caee::core::LoadEnsemble(ctx.artifact);
    load_ms.push_back(Ms(NowNs() - t0));
    if (!loaded.ok()) {
      Fail(&result, "cannot load " + ctx.artifact);
      return result;
    }
    art = std::move(loaded).value();
  }
  if (!art.spot.has_value()) {
    Fail(&result, "the served artifact has no SPOT calibration");
    return result;
  }
  caee::core::CaeEnsemble& ens = *art.ensemble;
  ens.set_num_threads(kServeThreads);
  const int64_t w = ens.config().window;
  const int64_t dp = ens.config().cae.embed_dim;
  auto dataset =
      caee::data::MakeDataset(spec.dataset, spec.scale, kArtifactSeed);
  if (!dataset.ok()) {
    Fail(&result, "cannot make dataset");
    return result;
  }
  const caee::ts::TimeSeries& test = dataset->test;
  const int64_t dims = test.dims();
  const Streams streams = MakeStreams(wl, test.length(), ctx.seed);

  // A schedule at the end-to-end run's high rate, as long as its high-rate
  // phases together, and the pipe probe's saturation script. Each starts
  // where set-up left off, because every replay and the probe's server open
  // fresh sessions.
  std::vector<int64_t> hi_index;
  const Script setup = SetupScript(wl, streams, test, w, &hi_index);
  std::vector<int64_t> saturation_index = hi_index;
  const std::vector<std::string> reload_paths = {ctx.artifact_copy,
                                                 ctx.artifact};
  size_t reloads = 0;
  Rng hi_rng = MakeRng(ctx.seed, "hi");
  const Script hi =
      TrafficScript(wl, streams, test, wl.hi_wps, kRunSeconds * kHiShare,
                    &hi_rng, reload_paths, &reloads, &hi_index);
  Rng saturation_rng = MakeRng(ctx.seed, "saturation");
  const Script saturation = TrafficScript(
      wl, streams, test, wl.offer_wps, kPipeSeconds, &saturation_rng,
      reload_paths, &reloads, &saturation_index);
  // (slot, index) -> request of the high-rate script.
  std::vector<std::vector<int32_t>> request_of(streams.slot_ids.size());
  for (size_t i = 0; i < hi.requests.size(); ++i) {
    const Request& r = hi.requests[i];
    if (r.slot < 0) continue;
    auto& of = request_of[static_cast<size_t>(r.slot)];
    if (of.size() <= static_cast<size_t>(r.index)) {
      of.resize(static_cast<size_t>(r.index) + 1, -1);
    }
    of[static_cast<size_t>(r.index)] = static_cast<int32_t>(i);
  }
  auto request_for = [&](const StreamScore& s) {
    const auto& of = request_of[static_cast<size_t>(
        streams.slot_of.at(s.stream_id))];
    return static_cast<size_t>(s.index) < of.size()
               ? of[static_cast<size_t>(s.index)]
               : -1;
  };

  const Replay plain = RunReplay(ctx, &art, setup, hi, false, 0.0, &result);
  const Replay rep = RunReplay(ctx, &art, setup, hi, true, 0.0, &result);
  const double windows = static_cast<double>(rep.results.size());
  result.attempted += static_cast<int64_t>(setup.requests.size()) * 2 +
                      plain.frames + rep.frames;

  // --- Pipe probe: caee_serve and the in-process loop, both saturated -----
  const double served_wps = ServedSaturationWps(
      ctx, streams, w, setup, saturation, kPipeSeconds, &result);
  const Replay fast =
      RunReplay(ctx, &art, setup, saturation, false, kPipeSeconds, &result);
  result.attempted +=
      static_cast<int64_t>(setup.requests.size()) + fast.frames;
  if (windows == 0.0 || plain.results.size() != rep.results.size()) {
    Fail(&result, "the two replays scored different window counts");
    return result;
  }

  // --- Queue wait, batch occupancy, deadline share -----------------------
  std::vector<double> wait_ns;
  double deadline_windows = 0.0;
  for (size_t s = 0; s < rep.spans.size(); ++s) {
    const Span& sp = rep.spans[s];
    for (size_t r = sp.first_result; r < sp.first_result + sp.num_results;
         ++r) {
      const int32_t req = request_for(rep.results[r]);
      if (req < 0) continue;
      wait_ns.push_back(req == sp.frame
                            ? 0.0
                            : static_cast<double>(
                                  sp.start -
                                  rep.pushed_ns[static_cast<size_t>(req)]));
      if (sp.kind == kFlush) deadline_windows += 1.0;
    }
  }
  const std::vector<Batch> batches = Batches(rep, wl);

  // --- Shadow replay: re-score every batch and check its bits -------------
  std::vector<float> buf(static_cast<size_t>(wl.max_batch * w * dims));
  std::vector<double> scores;
  int64_t mismatches = 0;
  auto fill = [&](const Batch& b) {
    for (size_t j = 0; j < b.size; ++j) {
      const StreamScore& s = rep.results[b.first + j];
      FillWindow(test, streams, streams.slot_of.at(s.stream_id), s.index, w,
                 buf.data() + j * static_cast<size_t>(w * dims));
    }
  };
  auto check = [&](const Batch& b) {
    for (size_t j = 0; j < b.size; ++j) {
      mismatches += std::memcmp(&scores[j], &rep.results[b.first + j].score,
                                sizeof(double)) != 0;
    }
  };
  for (const Batch& b : batches) {
    fill(b);
    ens.ScoreWindowsLastInto(buf.data(), static_cast<int64_t>(b.size),
                             &scores);
    check(b);
  }

  // --- Breakdown of sampled batches, one thread ---------------------------
  // With one thread the embedding and member plans run inside the scoring
  // call on this thread, so the wrappers time the call and the plans in it;
  // the call's self time is the rest. The convolutions are then timed on
  // their own at every member convolution's shape.
  const std::vector<ConvShape> conv_shapes = MemberConvShapes(ens.config().cae);
  caee::Rng weight_rng(ctx.seed);
  const caee::Tensor conv_w =
      caee::Tensor::Randn({dp, ens.config().cae.kernel, dp}, &weight_rng);
  const caee::Tensor conv_b = caee::Tensor::Randn({dp}, &weight_rng);
  const caee::Tensor x =
      caee::Tensor::Randn({wl.max_batch, w, dp}, &weight_rng);
  std::vector<float> y(static_cast<size_t>(x.numel()));
  int64_t score = 0, embed = 0, member = 0, conv = 0;
  double sampled = 0.0;
  const size_t stride = std::max<size_t>(1, batches.size() / kBreakdownBatches);
  ens.set_num_threads(1);
  for (size_t bi = 0; bi < batches.size(); bi += stride) {
    const Batch& b = batches[bi];
    const int64_t n = static_cast<int64_t>(b.size);
    fill(b);
    const int64_t score0 = t_engine_score_ns, embed0 = t_embed_ns,
                  member0 = t_member_ns;
    ens.ScoreWindowsLastInto(buf.data(), n, &scores);
    score += t_engine_score_ns - score0;
    embed += t_embed_ns - embed0;
    member += t_member_ns - member0;
    check(b);
    const caee::ParallelismCap cap(1);
    for (int64_t m = 0; m < ens.num_models(); ++m) {
      for (const ConvShape& c : conv_shapes) {
        const int64_t t0 = NowNs();
        caee::kernels::Conv1dForward(x.data(), conv_w.data(), conv_b.data(),
                                     y.data(), n, w, dp, dp, c.k, c.pad_left,
                                     w);
        conv += NowNs() - t0;
      }
    }
    sampled += static_cast<double>(n);
  }
  ens.set_num_threads(kServeThreads);
  if (mismatches > 0) {
    Fail(&result, std::to_string(mismatches) +
                      " replayed scores differ from a re-score of the same "
                      "window");
  }

  // --- Threshold verdicts and SPOT cost ----------------------------------
  int64_t spot_ns = 0, bad_flags = 0;
  {
    std::vector<std::vector<size_t>> by_slot(streams.slot_ids.size());
    for (size_t r = 0; r < rep.results.size(); ++r) {
      by_slot[static_cast<size_t>(streams.slot_of.at(
                  rep.results[r].stream_id))]
          .push_back(r);
    }
    const double threshold =
        art.threshold.value_or(std::numeric_limits<double>::infinity());
    for (auto& rs : by_slot) {
      std::sort(rs.begin(), rs.end(), [&](size_t a, size_t b) {
        return rep.results[a].index < rep.results[b].index;
      });
      caee::core::SpotState spot(*art.spot);
      std::vector<uint8_t> verdicts(rs.size());
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < rs.size(); ++i) {
        verdicts[i] = spot.Observe(rep.results[rs[i]].score);
      }
      spot_ns += NowNs() - t0;
      for (size_t i = 0; i < rs.size(); ++i) {
        const StreamScore& s = rep.results[rs[i]];
        const bool want =
            wl.spot_sessions
                ? verdicts[i] != 0
                : caee::core::ThresholdExceeded(s.score, threshold);
        bad_flags += want != s.flag;
      }
    }
  }
  if (bad_flags > 0) {
    Fail(&result, std::to_string(bad_flags) +
                      " replayed flags differ from the reference verdict");
  }

  // --- Per-layer self time: a span minus the scoring inside it ------------
  double kind_ns[kNumKinds] = {};
  int64_t traced_busy = 0, score_total = 0;
  for (const Span& sp : rep.spans) {
    const int64_t d = sp.end - sp.start;
    traced_busy += d;
    kind_ns[sp.kind] += static_cast<double>(d - sp.score_ns);
    // A reload's canary scoring is not a served window's.
    if (sp.kind != kReload) score_total += sp.score_ns;
  }
  if (score_total <= 0 || embed <= 0 || member <= 0) {
    Fail(&result, "the link step did not wrap the scoring calls: nothing "
                  "was timed inside them");
  }
  const double frames = static_cast<double>(rep.frames);
  const double untraced_per_window =
      static_cast<double>(plain.busy_ns) /
      static_cast<double>(plain.results.size());

  const Macs macs = MacsPerWindow(ens);
  const double embed_ns = static_cast<double>(embed) / sampled;
  const double member_ns = static_cast<double>(member) / sampled;
  const double conv_ns = static_cast<double>(conv) / sampled;
  const double score_self_ns =
      static_cast<double>(score - embed - member) / sampled;
  const double fast_ns = static_cast<double>(fast.busy_ns) /
                         static_cast<double>(fast.results.size());
  const TrainLayers train = MeasureTraining(ctx, &result);

  WriteChromeTrace(ctx.results_dir + "/trace-" + wl.name + "-" +
                       std::to_string(ctx.seed) + ".json",
                   rep);
  std::printf("# %s replay: %.0f windows in %.0f frames, %zu batches, %zu "
              "broken down\n",
              wl.name, windows, frames, batches.size(),
              (batches.size() + stride - 1) / stride);

  result.metrics = {
      {"framing.decode_ns", kind_ns[kDecode] / windows, "ns"},
      {"framing.encode_ns", kind_ns[kEncode] / windows, "ns"},
      {"framing.bytes_per_window",
       static_cast<double>(rep.wire_bytes) / windows, "B"},
      {"caee_serve.pipe_ns", 1e9 / served_wps - fast_ns, "ns"},
      {"caee_serve.poll_ns", kind_ns[kPoll] / frames, "ns"},
      {"serve.push_ns", kind_ns[kPush] / windows, "ns"},
      {"serve.flush_ns", kind_ns[kFlush] / windows, "ns"},
      {"serve.queue_wait_p50_ns", Quantile(wait_ns, 0.5), "ns"},
      {"serve.queue_wait_p99_ns", Quantile(wait_ns, 0.99), "ns"},
      {"serve.batch_windows", windows / static_cast<double>(batches.size()),
       "windows"},
      {"serve.deadline_flush_share",
       deadline_windows / static_cast<double>(wait_ns.size()), "ratio"},
      {"serve.bytes_per_stream",
       static_cast<double>(rep.memory_bytes) / static_cast<double>(rep.streams),
       "B"},
      {"serve.reload_ms", Median(rep.reload_ms), "ms"},
      {"core.load_ms", Median(load_ms), "ms"},
      {"core.score_ns", static_cast<double>(score_total) / windows, "ns"},
      {"core.score_self_ns", score_self_ns, "ns"},
      {"core.spot_ns", static_cast<double>(spot_ns) / windows, "ns"},
      {"infer.embed_ns", embed_ns, "ns"},
      {"infer.member_ns", member_ns, "ns"},
      {"infer.macs_per_window", macs.total, "count"},
      {"infer.gmac_per_s", macs.total / (embed_ns + member_ns), "GMAC/s"},
      {"kernels.conv_fwd_ns", conv_ns, "ns"},
      {"kernels.conv_fwd_gmac_per_s", macs.conv / conv_ns, "GMAC/s"},
      {"core.fit_s", train.fit_s, "s"},
      {"core.fit_s_t1", train.fit_s_t1, "s"},
      {"common.fit_speedup", train.fit_s_t1 / train.fit_s, "ratio"},
      {"autograd.step_fwd_ms", train.step_fwd_ms, "ms"},
      {"autograd.step_bwd_ms", train.step_bwd_ms, "ms"},
      {"optim.step_ms", train.optim_ms, "ms"},
      {"core.calibrate_ms", train.calibrate_ms, "ms"},
      {"core.save_ms", train.save_ms, "ms"},
      {"trace.overhead",
       static_cast<double>(traced_busy) / windows / untraced_per_window - 1.0,
       "ratio"},
  };
  return result;
}

}  // namespace caee_bench
