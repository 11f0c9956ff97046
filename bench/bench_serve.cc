// Multi-stream serving throughput: streams x max-batch table.
//
// Trains one small ensemble, then replays S independent synthetic streams
// through serve::ServingEngine round-robin and measures scored windows per
// second for each (streams, max_batch) cell on the compiled-forward-plan
// engine (infer/plan.h). The streams=1/max_batch=1 row is the serving
// TAIL-LATENCY case (one window per forward pass — ns/window is the
// per-window latency floor, nothing amortises). docs/serving.md "Sizing
// note" and docs/inference.md interpret the table.
//
// `--caee_json=PATH` additionally writes machine-readable entries
// {streams, max_batch, threads, impl, windows_per_sec, ns_per_window,
// checksum} (impl is always "plan"); scripts/run_benches.sh writes them to
// BENCH_5.json and scripts/check_bench_regression.py guards them in CI.
// The checksum is the sum of all scores in the cell's run — batching must
// not move it by a single bit, so drift here is a determinism regression,
// not noise. tests/infer_plan_test.cc checks the plans against the
// autograd reference bitwise.
//
// SCALE TABLE (PR 6): a second table sweeps streams {1k, 10k, 100k} x
// shards {1, 4, 16} at max_batch=16, measuring the metric the sharded
// engine exists for — BYTES PER IDLE STREAM (open S
// sessions, warm each ring to w-1 observations so nothing is pending, then
// divide serve::ServingEngine::MemoryBytes() by S) — plus scored-window
// throughput over a small ACTIVE subset (min(S, 64) streams fed
// round-robin) while the rest of the sessions sit idle, the
// mostly-idle-tenant shape docs/capacity.md sizes deployments around.
// `--caee_scale_json=PATH` writes these rows as a separate
// {"bench": "bench_serve_scale"} document (BENCH_6.json in CI); the cell
// checksum must match across shard counts — sharding must not move a
// score by a single bit.
//
// POLICY TABLE (PR 7): a third table compares the two threshold policies
// (docs/thresholds.md) — static (the pre-SPOT baseline, engine built
// without SPOT params) vs spot (per-stream GPD tail state, adaptive
// verdicts) — reporting ns/window and bytes per
// idle stream so the per-stream cost of the adaptive policy
// (core::SpotBytesPerStream) shows up next to its throughput cost.
// The cell checksum must match across policies: a verdict policy decides
// FLAGS, never scores, so checksum drift here means the policy layer
// leaked into scoring. `--caee_policy_json=PATH` writes the rows as a
// {"bench": "bench_serve_policy"} document (BENCH_7.json in CI); the
// regression checker gates ns_per_window and bytes_per_idle_stream like
// the scale table.
//
// RELOAD TABLE (PR 8): a fourth table measures the cost of zero-downtime
// hot-swap (docs/operations.md). The trained ensemble is saved to a temp
// artifact, and each reload cell replays the same streams while swapping
// that identical artifact in mid-stream three times via
// serve::ServingEngine::ReloadArtifact — the steady cell is the same
// replay with zero swaps. Reported per cell: throughput, the worst
// single-Push latency (max_push_ns — a swap must not stall a push), and
// the worst single reload wall time (reload_pause_ns — the load + validate
// + shard fan-out an operator's `reload,<path>` costs). The cell checksum
// must match between the steady and reload phases and across batch sizes:
// swapping in bitwise-identical weights must not move a single score, so
// drift here means a swap dropped, duplicated, or rescored a window.
// `--caee_reload_json=PATH` writes the rows as a
// {"bench": "bench_serve_reload"} document (BENCH_8.json in CI);
// scripts/check_bench_regression.py gates ns_per_window at 2x like the
// other serve tables (max_push_ns and reload_pause_ns are single-sample
// maxima — scheduler noise, reported but not gated).
//
// HEALTH TABLE (PR 10): a fifth table prices label-free model-health
// monitoring (docs/operations.md "Model-health runbook"). Each cell
// replays the same streams with `--health` off (the baseline engine) and
// on (health ring + canary retention ring + dispersion pass on the
// scoring path), reporting ns/window and bytes per idle stream — the
// bytes delta is the fixed per-shard health + canary slab cost amortised
// over the population. The cell checksum must match across the two modes:
// health monitoring OBSERVES scores, it never changes them, so checksum
// drift here means the monitor leaked into scoring.
// `--caee_health_json=PATH` writes the rows as a
// {"bench": "bench_serve_health"} document (BENCH_10.json in CI);
// scripts/check_bench_regression.py gates ns_per_window and
// bytes_per_idle_stream like the policy table.
//
// Extra flags beyond bench_util.h: --obs=N observations per stream
// (default 48), --caee_json=PATH, --caee_scale_json=PATH,
// --caee_policy_json=PATH, --caee_reload_json=PATH,
// --caee_health_json=PATH.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "serve/serving_engine.h"

namespace caee {
namespace {

struct ServeEntry {
  int64_t streams;
  int64_t max_batch;
  int64_t threads;
  const char* impl;  // always "plan"
  double windows_per_sec;
  double ns_per_window;
  double checksum;  // sum of all scores — batch-invariant
};

// Deterministic sine-plus-noise stream (each stream gets its own phase via
// the seed), matching the training distribution.
std::vector<std::vector<float>> MakeStream(int64_t length, int64_t dims,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> phase(static_cast<size_t>(dims));
  for (auto& p : phase) p = rng.Uniform(0.0, 6.28);
  std::vector<std::vector<float>> rows(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    auto& row = rows[static_cast<size_t>(t)];
    row.resize(static_cast<size_t>(dims));
    for (int64_t j = 0; j < dims; ++j) {
      row[static_cast<size_t>(j)] = static_cast<float>(
          std::sin(0.2 * static_cast<double>(t) +
                   phase[static_cast<size_t>(j)]) +
          0.05 * rng.Gaussian());
    }
  }
  return rows;
}

struct ScaleEntry {
  int64_t streams;
  int64_t shards;
  int64_t max_batch;
  int64_t threads;
  const char* impl;
  double windows_per_sec;
  double ns_per_window;
  double bytes_per_idle_stream;
  double checksum;
};

// One scale cell: S mostly-idle sessions, an active subset doing the work.
ScaleEntry RunScaleCell(core::CaeEnsemble* ensemble, int64_t num_streams,
                        int64_t num_shards, int64_t obs_per_stream,
                        int64_t dims) {
  const int64_t w = ensemble->config().window;
  serve::ServeConfig config;
  config.max_batch = 16;
  config.flush_deadline_ms = 0;
  config.num_shards = num_shards;
  serve::ServingEngine engine(ensemble, config);

  // Idle population: every session opened and warmed to w-1 observations —
  // the ring is allocated and full-but-one, nothing is pending. This is
  // the steady state of a mostly-idle tenant, and the state MemoryBytes()
  // is divided over. Idle streams share one warm block (their contents
  // never get scored); active streams score from real per-stream data.
  const auto warm_rows = MakeStream(w - 1, dims, 7);
  std::vector<serve::StreamScore> results;
  for (int64_t s = 0; s < num_streams; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
    for (const auto& row : warm_rows) {
      CAEE_CHECK(engine.Push(s, row, &results).ok());
    }
  }
  CAEE_CHECK(results.empty());
  CAEE_CHECK(engine.pending_windows() == 0);
  const double bytes_per_idle_stream =
      static_cast<double>(engine.MemoryBytes()) /
      static_cast<double>(num_streams);

  // Throughput over the active subset, round-robin; every push past warm-up
  // yields one ready window.
  const int64_t active = std::min<int64_t>(num_streams, 64);
  std::vector<std::vector<std::vector<float>>> streams;
  for (int64_t s = 0; s < active; ++s) {
    streams.push_back(
        MakeStream(obs_per_stream, dims, 1000 + static_cast<uint64_t>(s)));
  }
  Stopwatch timer;
  for (int64_t t = 0; t < obs_per_stream; ++t) {
    for (int64_t s = 0; s < active; ++s) {
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double seconds = timer.ElapsedSeconds();

  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) ==
                     active * obs_per_stream,
                 "scored " << results.size() << " windows, expected "
                           << active * obs_per_stream);
  // Individual scores are bitwise shard-count-invariant, but arrival ORDER
  // is not (each shard flushes its own queue) — and double addition is not
  // associative. Sum in canonical (stream, index) order so the checksum
  // compares the score SET, which is the actual contract.
  std::sort(results.begin(), results.end(),
            [](const serve::StreamScore& a, const serve::StreamScore& b) {
              return a.stream_id != b.stream_id ? a.stream_id < b.stream_id
                                                : a.index < b.index;
            });
  double checksum = 0.0;
  for (const auto& r : results) checksum += r.score;

  ScaleEntry entry;
  entry.streams = num_streams;
  entry.shards = num_shards;
  entry.max_batch = config.max_batch;
  entry.threads = static_cast<int64_t>(ensemble->config().num_threads);
  entry.impl = "plan";
  entry.windows_per_sec = static_cast<double>(results.size()) / seconds;
  entry.ns_per_window = seconds * 1e9 / static_cast<double>(results.size());
  entry.bytes_per_idle_stream = bytes_per_idle_stream;
  entry.checksum = checksum;
  return entry;
}

struct PolicyEntry {
  int64_t streams;
  int64_t max_batch;
  int64_t threads;
  const char* policy;  // "static" or "spot"
  double windows_per_sec;
  double ns_per_window;
  double bytes_per_idle_stream;
  double checksum;  // policy-invariant: verdicts never touch scores
};

// One policy cell: the same streams scored under one threshold policy.
// The static cell builds the engine WITHOUT SPOT params — the true
// pre-policy baseline — so the spot-vs-static bytes delta is the whole
// per-stream cost of the adaptive policy, not just its ring slab.
PolicyEntry RunPolicyCell(
    core::CaeEnsemble* ensemble, const std::optional<core::SpotInit>& spot,
    core::ThresholdPolicy policy,
    const std::vector<std::vector<std::vector<float>>>& streams) {
  const int64_t w = ensemble->config().window;
  serve::ServeConfig config;
  config.max_batch = 16;
  config.flush_deadline_ms = 0;
  config.threshold_policy = policy;
  serve::ServingEngine engine(ensemble, config, std::nullopt, spot);

  const int64_t num_streams = static_cast<int64_t>(streams.size());
  std::vector<serve::StreamScore> results;
  for (int64_t s = 0; s < num_streams; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
    for (int64_t t = 0; t < w - 1; ++t) {
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
    }
  }
  CAEE_CHECK(results.empty());
  const double bytes_per_idle_stream =
      static_cast<double>(engine.MemoryBytes()) /
      static_cast<double>(num_streams);

  const int64_t length = static_cast<int64_t>(streams.front().size());
  Stopwatch timer;
  for (int64_t t = w - 1; t < length; ++t) {
    for (int64_t s = 0; s < num_streams; ++s) {
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double seconds = timer.ElapsedSeconds();

  const int64_t expected = num_streams * (length - w + 1);
  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) == expected,
                 "scored " << results.size() << " windows, expected "
                           << expected);
  double checksum = 0.0;
  for (const auto& r : results) checksum += r.score;

  PolicyEntry entry;
  entry.streams = num_streams;
  entry.max_batch = config.max_batch;
  entry.threads = static_cast<int64_t>(ensemble->config().num_threads);
  entry.policy =
      policy == core::ThresholdPolicy::kSpot ? "spot" : "static";
  entry.windows_per_sec = static_cast<double>(results.size()) / seconds;
  entry.ns_per_window = seconds * 1e9 / static_cast<double>(results.size());
  entry.bytes_per_idle_stream = bytes_per_idle_stream;
  entry.checksum = checksum;
  return entry;
}

struct HealthEntry {
  int64_t streams;
  int64_t max_batch;
  int64_t threads;
  const char* health;  // "off" or "on"
  double windows_per_sec;
  double ns_per_window;
  double bytes_per_idle_stream;
  double checksum;  // mode-invariant: monitoring observes, never changes
};

// One health cell: the same streams scored with model-health monitoring
// off (the baseline engine) or on (health ring + canary retention + the
// member-dispersion pass all active on the scoring path). The off cell
// builds the engine without a health reference at all, so the on-vs-off
// delta is the whole cost of `--health`, not just the ring writes.
HealthEntry RunHealthCell(
    core::CaeEnsemble* ensemble, const core::HealthRef& ref, bool enabled,
    const std::vector<std::vector<std::vector<float>>>& streams) {
  const int64_t w = ensemble->config().window;
  serve::ServeConfig config;
  config.max_batch = 16;
  config.flush_deadline_ms = 0;
  config.health.enabled = enabled;
  serve::ServingEngine engine(
      ensemble, config, std::nullopt, std::nullopt,
      enabled ? std::optional<core::HealthRef>(ref) : std::nullopt);

  const int64_t num_streams = static_cast<int64_t>(streams.size());
  std::vector<serve::StreamScore> results;
  for (int64_t s = 0; s < num_streams; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
    for (int64_t t = 0; t < w - 1; ++t) {
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
    }
  }
  CAEE_CHECK(results.empty());
  const double bytes_per_idle_stream =
      static_cast<double>(engine.MemoryBytes()) /
      static_cast<double>(num_streams);

  const int64_t length = static_cast<int64_t>(streams.front().size());
  Stopwatch timer;
  for (int64_t t = w - 1; t < length; ++t) {
    for (int64_t s = 0; s < num_streams; ++s) {
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double seconds = timer.ElapsedSeconds();

  const int64_t expected = num_streams * (length - w + 1);
  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) == expected,
                 "scored " << results.size() << " windows, expected "
                           << expected);
  if (enabled) {
    // The monitored path really ran: the health ring saw every window.
    CAEE_CHECK_MSG(engine.Stats().health_window > 0,
                   "health monitoring on but the health ring stayed empty");
  }
  double checksum = 0.0;
  for (const auto& r : results) checksum += r.score;

  HealthEntry entry;
  entry.streams = num_streams;
  entry.max_batch = config.max_batch;
  entry.threads = static_cast<int64_t>(ensemble->config().num_threads);
  entry.health = enabled ? "on" : "off";
  entry.windows_per_sec = static_cast<double>(results.size()) / seconds;
  entry.ns_per_window = seconds * 1e9 / static_cast<double>(results.size());
  entry.bytes_per_idle_stream = bytes_per_idle_stream;
  entry.checksum = checksum;
  return entry;
}

struct ReloadEntry {
  int64_t streams;
  int64_t max_batch;
  int64_t threads;
  const char* phase;  // "steady" (zero swaps) or "reload" (three swaps)
  int64_t reloads;
  double windows_per_sec;
  double ns_per_window;
  double max_push_ns;      // worst single Push — swaps must not stall one
  double reload_pause_ns;  // worst single ReloadArtifact; 0 in steady phase
  double checksum;         // phase- and batch-invariant
};

// One reload cell: the same round-robin replay as RunCell, with
// `num_reloads` mid-stream hot-swaps of `artifact_path` — an artifact
// holding bitwise-identical weights — spaced evenly across the ticks. The
// swap is issued inline between ticks, exactly where caee_serve's control
// loop issues `reload,<path>`, so reload_pause_ns is the pause an operator
// actually pays: file read + parse + validation + shard fan-out.
ReloadEntry RunReloadCell(
    core::CaeEnsemble* ensemble,
    const std::vector<std::vector<std::vector<float>>>& streams,
    int64_t max_batch, const std::string& artifact_path,
    int64_t num_reloads) {
  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.flush_deadline_ms = 0;
  serve::ServingEngine engine(ensemble, config);

  const int64_t num_streams = static_cast<int64_t>(streams.size());
  for (int64_t s = 0; s < num_streams; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
  }
  const int64_t length = static_cast<int64_t>(streams.front().size());
  std::vector<int64_t> reload_at;
  for (int64_t r = 1; r <= num_reloads; ++r) {
    reload_at.push_back(length * r / (num_reloads + 1));
  }

  std::vector<serve::StreamScore> results;
  double max_push_ns = 0.0;
  double reload_pause_ns = 0.0;
  size_t next_reload = 0;
  Stopwatch timer;
  for (int64_t t = 0; t < length; ++t) {
    if (next_reload < reload_at.size() &&
        t == reload_at[next_reload]) {
      Stopwatch pause;
      const auto swapped = engine.ReloadArtifact(artifact_path);
      const double pause_ns = pause.ElapsedSeconds() * 1e9;
      CAEE_CHECK_MSG(swapped.ok(),
                     "mid-stream reload failed: " << swapped.status());
      reload_pause_ns = std::max(reload_pause_ns, pause_ns);
      ++next_reload;
    }
    for (int64_t s = 0; s < num_streams; ++s) {
      Stopwatch push;
      CAEE_CHECK(engine.Push(s, streams[static_cast<size_t>(s)]
                                       [static_cast<size_t>(t)],
                             &results)
                     .ok());
      max_push_ns = std::max(max_push_ns, push.ElapsedSeconds() * 1e9);
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double seconds = timer.ElapsedSeconds();

  // Zero-downtime contract, checked in-bench: every swap adopted (the
  // engine converged to generation 1 + num_reloads), and not one window
  // was dropped or duplicated along the way.
  CAEE_CHECK_MSG(engine.generation() == 1 + num_reloads,
                 "expected generation " << 1 + num_reloads << ", live is "
                                        << engine.generation());
  const int64_t w = ensemble->config().window;
  const int64_t expected = num_streams * (length - w + 1);
  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) == expected,
                 "scored " << results.size() << " windows across "
                           << num_reloads << " reload(s), expected "
                           << expected);
  // Same canonical-order sum as the scale table: swaps do not reorder a
  // stream's windows, but shard flush interleaving is not an ordering
  // contract, and double addition is not associative.
  std::sort(results.begin(), results.end(),
            [](const serve::StreamScore& a, const serve::StreamScore& b) {
              return a.stream_id != b.stream_id ? a.stream_id < b.stream_id
                                                : a.index < b.index;
            });
  double checksum = 0.0;
  for (const auto& r : results) checksum += r.score;

  ReloadEntry entry;
  entry.streams = num_streams;
  entry.max_batch = max_batch;
  entry.threads = static_cast<int64_t>(ensemble->config().num_threads);
  entry.phase = num_reloads > 0 ? "reload" : "steady";
  entry.reloads = num_reloads;
  entry.windows_per_sec = static_cast<double>(results.size()) / seconds;
  entry.ns_per_window = seconds * 1e9 / static_cast<double>(results.size());
  entry.max_push_ns = max_push_ns;
  entry.reload_pause_ns = reload_pause_ns;
  entry.checksum = checksum;
  return entry;
}

ServeEntry RunCell(core::CaeEnsemble* ensemble,
                   const std::vector<std::vector<std::vector<float>>>& streams,
                   int64_t max_batch) {
  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.flush_deadline_ms = 0;  // timing measures batching, not timers
  serve::ServingEngine engine(ensemble, config);

  const int64_t num_streams = static_cast<int64_t>(streams.size());
  for (int64_t s = 0; s < num_streams; ++s) {
    CAEE_CHECK(engine.OpenStream(s).ok());
  }
  const size_t length = streams.front().size();
  std::vector<serve::StreamScore> results;
  Stopwatch timer;
  // Round-robin arrival: one tick delivers one observation per stream,
  // which is what interleaves windows from different streams into shared
  // micro-batches.
  for (size_t t = 0; t < length; ++t) {
    for (int64_t s = 0; s < num_streams; ++s) {
      CAEE_CHECK(
          engine.Push(s, streams[static_cast<size_t>(s)][t], &results).ok());
    }
  }
  CAEE_CHECK(engine.Flush(&results).ok());
  const double seconds = timer.ElapsedSeconds();

  const int64_t w = ensemble->config().window;
  const int64_t expected =
      num_streams * (static_cast<int64_t>(length) - w + 1);
  CAEE_CHECK_MSG(static_cast<int64_t>(results.size()) == expected,
                 "scored " << results.size() << " windows, expected "
                           << expected);
  double checksum = 0.0;
  for (const auto& r : results) checksum += r.score;

  ServeEntry entry;
  entry.streams = num_streams;
  entry.max_batch = max_batch;
  entry.threads = static_cast<int64_t>(ensemble->config().num_threads);
  entry.impl = "plan";
  entry.windows_per_sec = static_cast<double>(results.size()) / seconds;
  entry.ns_per_window =
      seconds * 1e9 / static_cast<double>(results.size());
  entry.checksum = checksum;
  return entry;
}

int Main(int argc, char** argv) {
  bench::Flags flags = bench::Flags::Parse(argc, argv);
  std::string json_path, scale_json_path, policy_json_path,
      reload_json_path, health_json_path;
  int64_t obs_per_stream = 48;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--caee_scale_json=", 18) == 0) {
      scale_json_path = argv[i] + 18;
    } else if (std::strncmp(argv[i], "--caee_policy_json=", 19) == 0) {
      policy_json_path = argv[i] + 19;
    } else if (std::strncmp(argv[i], "--caee_reload_json=", 19) == 0) {
      reload_json_path = argv[i] + 19;
    } else if (std::strncmp(argv[i], "--caee_health_json=", 19) == 0) {
      health_json_path = argv[i] + 19;
    } else if (std::strncmp(argv[i], "--caee_json=", 12) == 0) {
      json_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--obs=", 6) == 0) {
      obs_per_stream = std::atoll(argv[i] + 6);
    }
  }

  core::EnsembleConfig config;
  config.cae.embed_dim = 8;
  config.cae.num_layers = 1;
  config.window = 8;
  config.num_models = flags.models;
  config.epochs_per_model = flags.epochs;
  config.batch_size = 32;
  config.max_train_windows = 128;
  config.num_threads = flags.threads;
  config.seed = flags.seed;

  const int64_t dims = 4;
  core::CaeEnsemble ensemble(config);
  std::vector<double> train_scores;  // SPOT calibration reference
  {
    const auto train_rows = MakeStream(260, dims, flags.seed);
    ts::TimeSeries train(static_cast<int64_t>(train_rows.size()), dims);
    for (int64_t t = 0; t < train.length(); ++t) {
      for (int64_t j = 0; j < dims; ++j) {
        train.value(t, j) = train_rows[static_cast<size_t>(t)]
                                      [static_cast<size_t>(j)];
      }
    }
    CAEE_CHECK(ensemble.Fit(train).ok());
    auto scored = ensemble.Score(train);
    CAEE_CHECK(scored.ok());
    train_scores = std::move(scored).value();
  }

  std::printf(
      "bench_serve: M=%lld, window=%lld, dims=%lld, obs/stream=%lld, "
      "threads=%lld\n\n",
      static_cast<long long>(config.num_models),
      static_cast<long long>(config.window), static_cast<long long>(dims),
      static_cast<long long>(obs_per_stream),
      static_cast<long long>(config.num_threads));
  std::printf("%8s %10s %7s %16s %14s\n", "streams", "max_batch", "impl",
              "windows/sec", "ns/window");

  std::vector<ServeEntry> entries;
  for (const int64_t num_streams : {int64_t{1}, int64_t{4}, int64_t{16}}) {
    std::vector<std::vector<std::vector<float>>> streams;
    for (int64_t s = 0; s < num_streams; ++s) {
      streams.push_back(MakeStream(obs_per_stream, dims,
                                   1000 + static_cast<uint64_t>(s)));
    }
    double base_checksum = 0.0;
    bool have_base = false;
    for (const int64_t max_batch : {int64_t{1}, int64_t{4}, int64_t{16}}) {
      const ServeEntry entry = RunCell(&ensemble, streams, max_batch);
      std::printf("%8lld %10lld %7s %16.1f %14.1f\n",
                  static_cast<long long>(entry.streams),
                  static_cast<long long>(entry.max_batch), entry.impl,
                  entry.windows_per_sec, entry.ns_per_window);
      // Determinism across batch sizes: identical inputs must sum to the
      // identical checksum everywhere.
      if (!have_base) {
        base_checksum = entry.checksum;
        have_base = true;
      } else {
        CAEE_CHECK_MSG(entry.checksum == base_checksum,
                       "checksum drift at streams=" << num_streams
                           << " max_batch=" << max_batch
                           << " — batching changed scores");
      }
      entries.push_back(entry);
    }
    std::printf("\n");
  }

  // The tail-latency summary: one window per pass, nothing amortised.
  for (const ServeEntry& e : entries) {
    if (e.streams == 1 && e.max_batch == 1) {
      std::printf("B=1 latency: %.1f us/window\n",
                  e.ns_per_window / 1000.0);
    }
  }

  // -------------------------------------------------------------------
  // Scale table: mostly-idle populations, sharded engines.
  // -------------------------------------------------------------------
  std::printf("\nscale table (max_batch=16, impl=plan, active streams "
              "capped at 64):\n");
  std::printf("%9s %7s %16s %14s %18s\n", "streams", "shards", "windows/sec",
              "ns/window", "bytes/idle-stream");
  std::vector<ScaleEntry> scale_entries;
  for (const int64_t num_streams :
       {int64_t{1000}, int64_t{10000}, int64_t{100000}}) {
    double base_checksum = 0.0;
    bool have_base = false;
    for (const int64_t num_shards : {int64_t{1}, int64_t{4}, int64_t{16}}) {
      const ScaleEntry entry = RunScaleCell(&ensemble, num_streams,
                                            num_shards, obs_per_stream, dims);
      std::printf("%9lld %7lld %16.1f %14.1f %18.1f\n",
                  static_cast<long long>(entry.streams),
                  static_cast<long long>(entry.shards), entry.windows_per_sec,
                  entry.ns_per_window, entry.bytes_per_idle_stream);
      // Shard-count invariance: same active streams, same data — the
      // score sum must not move by a bit when only the sharding changes.
      if (!have_base) {
        base_checksum = entry.checksum;
        have_base = true;
      } else {
        CAEE_CHECK_MSG(entry.checksum == base_checksum,
                       "checksum drift at streams=" << num_streams
                           << " shards=" << num_shards
                           << " — sharding changed scores");
      }
      scale_entries.push_back(entry);
    }
  }
  const ScaleEntry& biggest = scale_entries.back();
  std::printf("at %lld streams / %lld shards: %.1f bytes per idle stream "
              "(~%.1f MiB per 10^6 streams)\n",
              static_cast<long long>(biggest.streams),
              static_cast<long long>(biggest.shards),
              biggest.bytes_per_idle_stream,
              biggest.bytes_per_idle_stream * 1e6 / (1024.0 * 1024.0));

  // -------------------------------------------------------------------
  // Policy table: static vs streaming-SPOT verdicts on the same streams.
  // -------------------------------------------------------------------
  // level 0.9 (not the serving default 0.98) so this small training set
  // yields comfortably more than kSpotMinPeaks excesses.
  core::SpotConfig spot_config;
  spot_config.level = 0.9;
  spot_config.q = 0.02;
  spot_config.peak_capacity = 32;
  auto calibrated = core::CalibrateSpot(train_scores, spot_config);
  CAEE_CHECK_MSG(calibrated.ok(),
                 "SPOT calibration failed: " << calibrated.status());
  const std::optional<core::SpotInit> spot(std::move(calibrated).value());

  std::printf("\npolicy table (max_batch=16, impl=plan, peak_capacity=%lld; "
              "verdict policy must not move scores):\n",
              static_cast<long long>(spot_config.peak_capacity));
  std::printf("%8s %8s %16s %14s %18s\n", "streams", "policy", "windows/sec",
              "ns/window", "bytes/idle-stream");
  std::vector<PolicyEntry> policy_entries;
  for (const int64_t num_streams : {int64_t{4}, int64_t{16}}) {
    std::vector<std::vector<std::vector<float>>> streams;
    for (int64_t s = 0; s < num_streams; ++s) {
      streams.push_back(MakeStream(obs_per_stream, dims,
                                   1000 + static_cast<uint64_t>(s)));
    }
    double base_checksum = 0.0;
    bool have_base = false;
    for (const bool use_spot : {false, true}) {
      const PolicyEntry entry = RunPolicyCell(
          &ensemble, use_spot ? spot : std::optional<core::SpotInit>{},
          use_spot ? core::ThresholdPolicy::kSpot
                   : core::ThresholdPolicy::kStatic,
          streams);
      std::printf("%8lld %8s %16.1f %14.1f %18.1f\n",
                  static_cast<long long>(entry.streams), entry.policy,
                  entry.windows_per_sec, entry.ns_per_window,
                  entry.bytes_per_idle_stream);
      // A threshold policy decides flags, never scores: any checksum
      // drift means the policy layer leaked into scoring.
      if (!have_base) {
        base_checksum = entry.checksum;
        have_base = true;
      } else {
        CAEE_CHECK_MSG(entry.checksum == base_checksum,
                       "checksum drift at streams="
                           << num_streams << " policy=" << entry.policy
                           << " — the threshold policy changed scores");
      }
      policy_entries.push_back(entry);
    }
  }
  std::printf("spot per-stream overhead at this capacity: "
              "core::SpotBytesPerStream = %lld bytes\n",
              static_cast<long long>(core::SpotBytesPerStream(spot_config)));

  // -------------------------------------------------------------------
  // Reload table: hot-swapping an identical artifact mid-stream.
  // -------------------------------------------------------------------
  const std::string reload_artifact = "bench_serve_reload.caee";
  {
    // Same weights, no threshold/SPOT sections — matching the engine the
    // reload cells construct, so validation always adopts the candidate.
    const Status saved = core::SaveEnsemble(ensemble, reload_artifact);
    CAEE_CHECK_MSG(saved.ok(), "artifact save failed: " << saved);
  }
  const int64_t kReloads = 3;
  std::printf("\nreload table (impl=plan, %lld mid-stream swaps of the "
              "identical artifact; a swap must not move a score):\n",
              static_cast<long long>(kReloads));
  std::printf("%8s %10s %7s %16s %14s %13s %16s\n", "streams", "max_batch",
              "phase", "windows/sec", "ns/window", "max-push-us",
              "reload-pause-us");
  std::vector<ReloadEntry> reload_entries;
  for (const int64_t num_streams : {int64_t{4}, int64_t{16}}) {
    std::vector<std::vector<std::vector<float>>> streams;
    for (int64_t s = 0; s < num_streams; ++s) {
      streams.push_back(MakeStream(obs_per_stream, dims,
                                   1000 + static_cast<uint64_t>(s)));
    }
    double base_checksum = 0.0;
    bool have_base = false;
    for (const int64_t max_batch : {int64_t{1}, int64_t{16}}) {
      for (const int64_t num_reloads : {int64_t{0}, kReloads}) {
        const ReloadEntry entry =
            RunReloadCell(&ensemble, streams, max_batch, reload_artifact,
                          num_reloads);
        std::printf("%8lld %10lld %7s %16.1f %14.1f %13.1f %16.1f\n",
                    static_cast<long long>(entry.streams),
                    static_cast<long long>(entry.max_batch), entry.phase,
                    entry.windows_per_sec, entry.ns_per_window,
                    entry.max_push_ns / 1000.0,
                    entry.reload_pause_ns / 1000.0);
        // Swap invariance: identical weights in, identical score set out —
        // regardless of batch size or how many swaps interleaved.
        if (!have_base) {
          base_checksum = entry.checksum;
          have_base = true;
        } else {
          CAEE_CHECK_MSG(entry.checksum == base_checksum,
                         "checksum drift at streams="
                             << num_streams << " max_batch=" << max_batch
                             << " phase=" << entry.phase
                             << " — a hot-swap changed scores");
        }
        reload_entries.push_back(entry);
      }
    }
  }
  std::remove(reload_artifact.c_str());

  // -------------------------------------------------------------------
  // Health table: model-health monitoring off vs on, same streams.
  // -------------------------------------------------------------------
  core::HealthRef health_ref;
  {
    // Constant member dispersion: the serving-side cost being priced does
    // not depend on the reference's values, only on its presence.
    std::vector<double> dispersions(train_scores.size(), 0.25);
    auto calibrated_health = core::CalibrateHealthRef(train_scores,
                                                      dispersions);
    CAEE_CHECK_MSG(calibrated_health.ok(), "health calibration failed: "
                                               << calibrated_health.status());
    health_ref = std::move(calibrated_health).value();
  }
  std::printf("\nhealth table (max_batch=16, impl=plan; monitoring must "
              "not move scores):\n");
  std::printf("%8s %8s %16s %14s %18s\n", "streams", "health", "windows/sec",
              "ns/window", "bytes/idle-stream");
  std::vector<HealthEntry> health_entries;
  for (const int64_t num_streams : {int64_t{4}, int64_t{16}}) {
    std::vector<std::vector<std::vector<float>>> streams;
    for (int64_t s = 0; s < num_streams; ++s) {
      streams.push_back(MakeStream(obs_per_stream, dims,
                                   1000 + static_cast<uint64_t>(s)));
    }
    double base_checksum = 0.0;
    bool have_base = false;
    for (const bool enabled : {false, true}) {
      const HealthEntry entry =
          RunHealthCell(&ensemble, health_ref, enabled, streams);
      std::printf("%8lld %8s %16.1f %14.1f %18.1f\n",
                  static_cast<long long>(entry.streams), entry.health,
                  entry.windows_per_sec, entry.ns_per_window,
                  entry.bytes_per_idle_stream);
      // Health monitoring observes scores; it must never change one.
      if (!have_base) {
        base_checksum = entry.checksum;
        have_base = true;
      } else {
        CAEE_CHECK_MSG(entry.checksum == base_checksum,
                       "checksum drift at streams="
                           << num_streams << " health=" << entry.health
                           << " — health monitoring changed scores");
      }
      health_entries.push_back(entry);
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_serve\",\n  \"schema\": 2,\n"
                    "  \"entries\": [\n");
    for (size_t i = 0; i < entries.size(); ++i) {
      const ServeEntry& e = entries[i];
      std::fprintf(
          f,
          "    {\"streams\": %lld, \"max_batch\": %lld, \"threads\": %lld, "
          "\"impl\": \"%s\", \"windows_per_sec\": %.1f, "
          "\"ns_per_window\": %.1f, \"checksum\": %.17g}%s\n",
          static_cast<long long>(e.streams),
          static_cast<long long>(e.max_batch),
          static_cast<long long>(e.threads), e.impl, e.windows_per_sec,
          e.ns_per_window, e.checksum,
          i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", json_path.c_str(),
                entries.size());
  }

  if (!scale_json_path.empty()) {
    std::FILE* f = std::fopen(scale_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", scale_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_serve_scale\",\n  \"schema\": 1,\n"
                 "  \"entries\": [\n");
    for (size_t i = 0; i < scale_entries.size(); ++i) {
      const ScaleEntry& e = scale_entries[i];
      std::fprintf(
          f,
          "    {\"streams\": %lld, \"shards\": %lld, \"max_batch\": %lld, "
          "\"threads\": %lld, \"impl\": \"%s\", \"windows_per_sec\": %.1f, "
          "\"ns_per_window\": %.1f, \"bytes_per_idle_stream\": %.1f, "
          "\"checksum\": %.17g}%s\n",
          static_cast<long long>(e.streams), static_cast<long long>(e.shards),
          static_cast<long long>(e.max_batch),
          static_cast<long long>(e.threads), e.impl, e.windows_per_sec,
          e.ns_per_window, e.bytes_per_idle_stream, e.checksum,
          i + 1 < scale_entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", scale_json_path.c_str(),
                scale_entries.size());
  }

  if (!policy_json_path.empty()) {
    std::FILE* f = std::fopen(policy_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", policy_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_serve_policy\",\n  \"schema\": 1,\n"
                 "  \"entries\": [\n");
    for (size_t i = 0; i < policy_entries.size(); ++i) {
      const PolicyEntry& e = policy_entries[i];
      std::fprintf(
          f,
          "    {\"streams\": %lld, \"max_batch\": %lld, \"threads\": %lld, "
          "\"policy\": \"%s\", \"windows_per_sec\": %.1f, "
          "\"ns_per_window\": %.1f, \"bytes_per_idle_stream\": %.1f, "
          "\"checksum\": %.17g}%s\n",
          static_cast<long long>(e.streams),
          static_cast<long long>(e.max_batch),
          static_cast<long long>(e.threads), e.policy, e.windows_per_sec,
          e.ns_per_window, e.bytes_per_idle_stream, e.checksum,
          i + 1 < policy_entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", policy_json_path.c_str(),
                policy_entries.size());
  }

  if (!reload_json_path.empty()) {
    std::FILE* f = std::fopen(reload_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", reload_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_serve_reload\",\n  \"schema\": 1,\n"
                 "  \"entries\": [\n");
    for (size_t i = 0; i < reload_entries.size(); ++i) {
      const ReloadEntry& e = reload_entries[i];
      std::fprintf(
          f,
          "    {\"streams\": %lld, \"max_batch\": %lld, \"threads\": %lld, "
          "\"phase\": \"%s\", \"reloads\": %lld, "
          "\"windows_per_sec\": %.1f, \"ns_per_window\": %.1f, "
          "\"max_push_ns\": %.1f, \"reload_pause_ns\": %.1f, "
          "\"checksum\": %.17g}%s\n",
          static_cast<long long>(e.streams),
          static_cast<long long>(e.max_batch),
          static_cast<long long>(e.threads), e.phase,
          static_cast<long long>(e.reloads), e.windows_per_sec,
          e.ns_per_window, e.max_push_ns, e.reload_pause_ns, e.checksum,
          i + 1 < reload_entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", reload_json_path.c_str(),
                reload_entries.size());
  }

  if (!health_json_path.empty()) {
    std::FILE* f = std::fopen(health_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", health_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_serve_health\",\n  \"schema\": 1,\n"
                 "  \"entries\": [\n");
    for (size_t i = 0; i < health_entries.size(); ++i) {
      const HealthEntry& e = health_entries[i];
      std::fprintf(
          f,
          "    {\"streams\": %lld, \"max_batch\": %lld, \"threads\": %lld, "
          "\"health\": \"%s\", \"windows_per_sec\": %.1f, "
          "\"ns_per_window\": %.1f, \"bytes_per_idle_stream\": %.1f, "
          "\"checksum\": %.17g}%s\n",
          static_cast<long long>(e.streams),
          static_cast<long long>(e.max_batch),
          static_cast<long long>(e.threads), e.health, e.windows_per_sec,
          e.ns_per_window, e.bytes_per_idle_stream, e.checksum,
          i + 1 < health_entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", health_json_path.c_str(),
                health_entries.size());
  }
  return 0;
}

}  // namespace
}  // namespace caee

int main(int argc, char** argv) { return caee::Main(argc, argv); }
