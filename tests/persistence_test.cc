// Tests for the ensemble artifact format (core/persistence): bitwise
// save/load round trips, the offline-train / online-serve equivalence, and
// the failure paths — truncation, wrong magic, version skew, checksum
// corruption, shape-mismatched state dicts — all of which must surface as a
// non-OK Status, never UB.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/health.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "core/streaming.h"
#include "data/registry.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace caee {
namespace {

core::EnsembleConfig TinyConfig() {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 6;
  cfg.cae.num_layers = 1;
  cfg.window = 5;
  cfg.num_models = 2;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 32;
  cfg.max_train_windows = 64;
  cfg.seed = 9;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = testutil::PlantedSeries(220, 2, 1);
    ensemble_ = std::make_unique<core::CaeEnsemble>(TinyConfig());
    ASSERT_TRUE(ensemble_->Fit(train_).ok());
  }

  /// Save to a fresh temp file and return its bytes (for corruption tests).
  std::string SavedArtifactBytes(const std::string& name) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(core::SaveEnsemble(*ensemble_, path, 1.5).ok());
    return ReadFileBytes(path);
  }

  ts::TimeSeries train_;
  std::unique_ptr<core::CaeEnsemble> ensemble_;
};

TEST_F(PersistenceTest, RoundTripScoresAreBitwiseIdentical) {
  const std::string path = TempPath("roundtrip.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path, 42.5).ok());

  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->ensemble->fitted());
  ASSERT_TRUE(loaded->threshold.has_value());
  EXPECT_EQ(loaded->threshold.value(), 42.5);
  EXPECT_EQ(loaded->ensemble->num_models(), ensemble_->num_models());
  EXPECT_EQ(loaded->ensemble->input_dim(), ensemble_->input_dim());
  EXPECT_EQ(loaded->ensemble->config().window, ensemble_->config().window);
  EXPECT_EQ(loaded->ensemble->config().cae.embed_dim,
            ensemble_->config().cae.embed_dim);
  EXPECT_EQ(loaded->ensemble->config().seed, ensemble_->config().seed);

  // Training series and a fresh series, original vs reloaded: the scores
  // must match bit for bit (EXPECT_EQ on doubles, no tolerance).
  for (const auto& series :
       {train_, testutil::PlantedSeries(90, 2, 5, {70})}) {
    auto original = ensemble_->Score(series);
    auto reloaded = loaded->ensemble->Score(series);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reloaded.ok());
    ASSERT_EQ(original->size(), reloaded->size());
    for (size_t t = 0; t < original->size(); ++t) {
      EXPECT_EQ((*original)[t], (*reloaded)[t]) << "t=" << t;
    }
  }
}

TEST_F(PersistenceTest, LoadedEnsembleServesStreamingBitwise) {
  const std::string path = TempPath("serve.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path).ok());
  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->threshold.has_value());

  // The train/serve lifecycle: offline batch scores from the ORIGINAL
  // ensemble, streaming scores from the RELOADED one, equal bit for bit
  // from the first warm observation on.
  auto batch = ensemble_->Score(train_);
  ASSERT_TRUE(batch.ok());
  core::StreamingScorer scorer(loaded->ensemble.get());
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < train_.length(); ++t) {
    auto result = scorer.Push(
        std::vector<float>(train_.row(t), train_.row(t) + train_.dims()));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->has_value(), t >= w - 1);
    if (result->has_value()) {
      EXPECT_EQ(result->value(), (*batch)[static_cast<size_t>(t)])
          << "t=" << t;
    }
  }
}

TEST_F(PersistenceTest, RoundTripOnEvalSuiteDatasets) {
  // The acceptance bar: bitwise-identical scores on the eval suite's
  // synthetic datasets (tiny scale — this is a format test, not accuracy).
  for (const std::string name : {"ECG", "SMD", "SMAP"}) {
    auto dataset = data::MakeDataset(name, /*scale=*/0.05, /*seed=*/21);
    ASSERT_TRUE(dataset.ok()) << name;
    core::EnsembleConfig cfg;
    cfg.cae.embed_dim = 0;  // auto-size from dims; persisted resolved
    cfg.cae.num_layers = 1;
    cfg.window = 8;
    cfg.num_models = 2;
    cfg.epochs_per_model = 1;
    cfg.max_train_windows = 48;
    cfg.seed = 3;
    core::CaeEnsemble original(cfg);
    ASSERT_TRUE(original.Fit(dataset->train).ok()) << name;

    const std::string path = TempPath("eval_" + name + ".caee");
    ASSERT_TRUE(core::SaveEnsemble(original, path).ok()) << name;
    auto loaded = core::LoadEnsemble(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status();
    EXPECT_GT(loaded->ensemble->config().cae.embed_dim, 0) << name;

    auto expected = original.Score(dataset->test);
    auto actual = loaded->ensemble->Score(dataset->test);
    ASSERT_TRUE(expected.ok()) << name;
    ASSERT_TRUE(actual.ok()) << name;
    ASSERT_EQ(expected->size(), actual->size()) << name;
    for (size_t t = 0; t < expected->size(); ++t) {
      ASSERT_EQ((*expected)[t], (*actual)[t]) << name << " t=" << t;
    }
  }
}

TEST_F(PersistenceTest, SaveRequiresFittedEnsemble) {
  core::CaeEnsemble unfitted(TinyConfig());
  Status s = core::SaveEnsemble(unfitted, TempPath("unfitted.caee"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, TruncatedFileFailsCleanly) {
  const std::string bytes = SavedArtifactBytes("truncate.caee");
  const std::string path = TempPath("truncated.caee");
  // Cut the file at a spread of prefix lengths: inside the header, inside a
  // section header, inside payloads, and one byte short of complete.
  std::vector<size_t> cuts = {0, 1, 4, 8, 11, 12, 20, 27,
                              bytes.size() / 3, bytes.size() / 2,
                              bytes.size() - 1};
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    WriteFileBytes(path, bytes.substr(0, cut));
    auto loaded = core::LoadEnsemble(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes was accepted";
  }
}

TEST_F(PersistenceTest, WrongMagicFails) {
  std::string bytes = SavedArtifactBytes("magic.caee");
  bytes[0] = 'X';
  const std::string path = TempPath("badmagic.caee");
  WriteFileBytes(path, bytes);
  auto loaded = core::LoadEnsemble(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(PersistenceTest, VersionSkewFails) {
  std::string bytes = SavedArtifactBytes("version.caee");
  const uint32_t future_version = core::kArtifactVersion + 1;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  const std::string path = TempPath("skew.caee");
  WriteFileBytes(path, bytes);
  auto loaded = core::LoadEnsemble(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(PersistenceTest, BitFlipAnywhereIsDetected) {
  const std::string bytes = SavedArtifactBytes("flip.caee");
  const std::string path = TempPath("flipped.caee");
  // Flip one byte at a spread of positions across the payload area; the
  // per-section CRC must catch every one of them.
  for (size_t pos = 16; pos < bytes.size(); pos += bytes.size() / 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    WriteFileBytes(path, corrupt);
    auto loaded = core::LoadEnsemble(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " undetected";
  }
}

TEST_F(PersistenceTest, RestoreRejectsShapeMismatchedStateDict) {
  nn::StateDict embedding_state = nn::GetStateDict(ensemble_->embedding());
  std::vector<nn::StateDict> members;
  for (int64_t mi = 0; mi < ensemble_->num_models(); ++mi) {
    members.push_back(nn::GetStateDict(ensemble_->model(mi)));
  }

  // Reshape one member parameter: Restore must reject it, naming the member.
  auto bad_members = members;
  auto it = bad_members[1].begin();
  it->second = Tensor(Shape{it->second.numel() + 1});
  auto restored = core::CaeEnsemble::Restore(
      ensemble_->config(), ensemble_->input_dim(), embedding_state,
      bad_members, ensemble_->scaler());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("member 1"), std::string::npos);

  // Drop a parameter from the embedding dict: also rejected.
  auto bad_embedding = embedding_state;
  bad_embedding.erase(bad_embedding.begin());
  auto restored2 = core::CaeEnsemble::Restore(
      ensemble_->config(), ensemble_->input_dim(), bad_embedding, members,
      ensemble_->scaler());
  EXPECT_FALSE(restored2.ok());

  // Wrong member count: rejected before any state dict is touched.
  auto restored3 = core::CaeEnsemble::Restore(
      ensemble_->config(), ensemble_->input_dim(), embedding_state,
      {members[0]}, ensemble_->scaler());
  ASSERT_FALSE(restored3.ok());
  EXPECT_EQ(restored3.status().code(), StatusCode::kInvalidArgument);

  // The happy path with the same inputs still works and scores identically.
  auto restored4 = core::CaeEnsemble::Restore(
      ensemble_->config(), ensemble_->input_dim(), embedding_state, members,
      ensemble_->scaler());
  ASSERT_TRUE(restored4.ok()) << restored4.status();
  auto original = ensemble_->Score(train_);
  auto rebuilt = restored4.value()->Score(train_);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rebuilt.ok());
  for (size_t t = 0; t < original->size(); ++t) {
    EXPECT_EQ((*original)[t], (*rebuilt)[t]);
  }
}

TEST_F(PersistenceTest, EmptyStateDictRoundTrips) {
  // Stream round trip.
  std::ostringstream os;
  ASSERT_TRUE(nn::WriteStateDict(os, nn::StateDict{}).ok());
  std::istringstream is(os.str());
  auto dict = nn::ReadStateDict(is);
  ASSERT_TRUE(dict.ok());
  EXPECT_TRUE(dict->empty());

  // File round trip.
  const std::string path = TempPath("empty.dict");
  ASSERT_TRUE(nn::SaveStateDict(nn::StateDict{}, path).ok());
  auto from_file = nn::LoadStateDictFile(path);
  ASSERT_TRUE(from_file.ok());
  EXPECT_TRUE(from_file->empty());
}

TEST_F(PersistenceTest, StreamingScorerRejectsWrongDims) {
  core::StreamingScorer scorer(ensemble_.get());
  EXPECT_EQ(scorer.dims(), 2);
  // Wrong size on the FIRST push is already rejected (the fitted dims are
  // known at construction, not latched from the first observation).
  auto too_wide = scorer.Push({1.0f, 2.0f, 3.0f});
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(scorer.Push({}).ok());
  EXPECT_FALSE(scorer.Push({1.0f}).ok());
  // Rejected pushes must not pollute the buffer.
  EXPECT_EQ(scorer.observations_seen(), 0);
  ASSERT_TRUE(scorer.Push({1.0f, 2.0f}).ok());
  EXPECT_EQ(scorer.observations_seen(), 1);
}

TEST_F(PersistenceTest, ScalerRestoreValidates) {
  ts::Scaler scaler;
  EXPECT_FALSE(scaler.Restore({}, {}).ok());
  EXPECT_FALSE(scaler.Restore({0.0, 1.0}, {1.0}).ok());
  EXPECT_FALSE(scaler.Restore({0.0}, {0.0}).ok());     // zero stddev
  EXPECT_FALSE(scaler.Restore({0.0}, {-1.0}).ok());    // negative stddev
  ASSERT_TRUE(scaler.Restore({1.0, 2.0}, {3.0, 4.0}).ok());
  EXPECT_TRUE(scaler.fitted());
  EXPECT_EQ(scaler.mean()[1], 2.0);
  EXPECT_EQ(scaler.stddev()[0], 3.0);
}

TEST_F(PersistenceTest, MissingFileFails) {
  // A directory opens for reading and reports a bogus size: it must fail
  // the same way, not throw from a huge allocation.
  for (const std::string& path :
       {TempPath("does-not-exist.caee"), ::testing::TempDir()}) {
    auto loaded = core::LoadEnsemble(path);
    ASSERT_FALSE(loaded.ok()) << path;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << path;
  }
}

// ---------------------------------------------------------------------------
// Optional spot section (docs/thresholds.md, docs/persistence.md).
// ---------------------------------------------------------------------------

core::SpotInit CalibratedSpot(core::CaeEnsemble* ensemble,
                              const ts::TimeSeries& train) {
  auto scores = ensemble->Score(train);
  CAEE_CHECK(scores.ok());
  core::SpotConfig config;
  config.level = 0.8;
  config.q = 0.05;
  config.peak_capacity = 16;
  auto init = core::CalibrateSpot(scores.value(), config);
  CAEE_CHECK_MSG(init.ok(), "SPOT calibration failed in test setup");
  return std::move(init).value();
}

TEST_F(PersistenceTest, SpotSectionRoundTripsExactly) {
  const core::SpotInit spot = CalibratedSpot(ensemble_.get(), train_);
  const std::string path = TempPath("spot.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path, 1.5, &spot).ok());

  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->threshold.has_value());  // spot rides WITH the static
  ASSERT_TRUE(loaded->spot.has_value());
  // Bitwise field equality: the reloaded init must seed streams exactly
  // like the in-process one (the determinism contract crosses the
  // artifact boundary).
  EXPECT_EQ(loaded->spot->config.q, spot.config.q);
  EXPECT_EQ(loaded->spot->config.level, spot.config.level);
  EXPECT_EQ(loaded->spot->config.peak_capacity, spot.config.peak_capacity);
  EXPECT_EQ(loaded->spot->t, spot.t);
  EXPECT_EQ(loaded->spot->z, spot.z);
  EXPECT_EQ(loaded->spot->n, spot.n);
  EXPECT_EQ(loaded->spot->peaks_total, spot.peaks_total);
  ASSERT_EQ(loaded->spot->peaks.size(), spot.peaks.size());
  for (size_t i = 0; i < spot.peaks.size(); ++i) {
    EXPECT_EQ(loaded->spot->peaks[i], spot.peaks[i]) << "peak " << i;
  }
}

TEST_F(PersistenceTest, ArtifactWithoutSpotIsByteIdenticalToPreSpotFormat) {
  // The no-version-bump rule rests on this: not asking for the section
  // leaves the artifact bytes exactly as older writers produced them, and
  // loading reports no SPOT params.
  const std::string implicit_path = TempPath("nospot_implicit.caee");
  const std::string explicit_path = TempPath("nospot_explicit.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, implicit_path, 1.5).ok());
  ASSERT_TRUE(
      core::SaveEnsemble(*ensemble_, explicit_path, 1.5, nullptr).ok());
  EXPECT_EQ(ReadFileBytes(implicit_path), ReadFileBytes(explicit_path));

  auto loaded = core::LoadEnsemble(implicit_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->spot.has_value());

  const core::SpotInit spot = CalibratedSpot(ensemble_.get(), train_);
  const std::string spot_path = TempPath("withspot.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, spot_path, 1.5, &spot).ok());
  EXPECT_GT(ReadFileBytes(spot_path).size(),
            ReadFileBytes(implicit_path).size());
}

TEST_F(PersistenceTest, SaveRejectsInvalidSpotInit) {
  core::SpotInit bad = CalibratedSpot(ensemble_.get(), train_);
  bad.z = bad.t - 1.0;  // alerting below the peaks threshold
  EXPECT_EQ(core::SaveEnsemble(*ensemble_, TempPath("badspot.caee"), 1.5,
                               &bad)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, SemanticallyCorruptSpotSectionRejected) {
  // A spot payload whose CRC checks out but whose fields are nonsense
  // (here: z < t) must be rejected by ValidateSpotInit on load — the CRC
  // guards bit rot, the validator guards hostile or buggy writers.
  const core::SpotInit spot = CalibratedSpot(ensemble_.get(), train_);
  const std::string path = TempPath("corrupt_spot.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path, 1.5, &spot).ok());
  std::string bytes = ReadFileBytes(path);

  // The spot section is written last: payload = q, level, capacity, t, z,
  // n, peaks_total, count, count x f64. Its header (u32 tag, u64 size,
  // u32 crc) sits 16 bytes before the payload.
  const size_t payload_size =
      8 * 7 + 8 + spot.peaks.size() * sizeof(double);
  const size_t payload_at = bytes.size() - payload_size;
  uint32_t tag = 0;
  std::memcpy(&tag, bytes.data() + payload_at - 16, sizeof(tag));
  ASSERT_EQ(tag, 6u);  // kSectionSpot

  const double bad_z = spot.t - 1.0;
  std::memcpy(&bytes[payload_at + 8 * 4], &bad_z, sizeof(bad_z));
  const uint32_t new_crc =
      Crc32(bytes.data() + payload_at, payload_size);
  std::memcpy(&bytes[payload_at - 4], &new_crc, sizeof(new_crc));
  WriteFileBytes(path, bytes);

  auto loaded = core::LoadEnsemble(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Optional health section (docs/operations.md, docs/persistence.md).
// ---------------------------------------------------------------------------

core::HealthRef CalibratedHealth(core::CaeEnsemble* ensemble,
                                 const ts::TimeSeries& train) {
  auto scores = ensemble->Score(train);
  CAEE_CHECK(scores.ok());
  std::vector<double> dispersions(scores.value().size(), 0.25);
  auto ref = core::CalibrateHealthRef(scores.value(), dispersions);
  CAEE_CHECK_MSG(ref.ok(), "health calibration failed in test setup");
  return std::move(ref).value();
}

TEST_F(PersistenceTest, HealthSectionRoundTripsExactly) {
  const core::HealthRef health = CalibratedHealth(ensemble_.get(), train_);
  const std::string path = TempPath("health.caee");
  ASSERT_TRUE(
      core::SaveEnsemble(*ensemble_, path, 1.5, nullptr, &health).ok());

  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->health.has_value());
  // Bitwise field equality: the canary and the monitor must judge against
  // exactly the reference that was calibrated, across the artifact
  // boundary.
  EXPECT_EQ(loaded->health->count, health.count);
  EXPECT_EQ(loaded->health->min, health.min);
  EXPECT_EQ(loaded->health->max, health.max);
  EXPECT_EQ(loaded->health->mean, health.mean);
  EXPECT_EQ(loaded->health->stddev, health.stddev);
  EXPECT_EQ(loaded->health->mean_dispersion, health.mean_dispersion);
  ASSERT_EQ(loaded->health->bins.size(), health.bins.size());
  for (size_t i = 0; i < health.bins.size(); ++i) {
    EXPECT_EQ(loaded->health->bins[i], health.bins[i]) << "bin " << i;
  }
}

TEST_F(PersistenceTest, ArtifactWithoutHealthIsByteIdenticalToPreHealthFormat) {
  // Same no-version-bump rule as the spot section: not asking for it
  // leaves the bytes exactly as older writers produced them.
  const std::string implicit_path = TempPath("nohealth_implicit.caee");
  const std::string explicit_path = TempPath("nohealth_explicit.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, implicit_path, 1.5).ok());
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, explicit_path, 1.5, nullptr,
                                 nullptr)
                  .ok());
  EXPECT_EQ(ReadFileBytes(implicit_path), ReadFileBytes(explicit_path));

  auto loaded = core::LoadEnsemble(implicit_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->health.has_value());

  const core::HealthRef health = CalibratedHealth(ensemble_.get(), train_);
  const std::string health_path = TempPath("withhealth.caee");
  ASSERT_TRUE(
      core::SaveEnsemble(*ensemble_, health_path, 1.5, nullptr, &health)
          .ok());
  EXPECT_GT(ReadFileBytes(health_path).size(),
            ReadFileBytes(implicit_path).size());
}

TEST_F(PersistenceTest, SaveRejectsInvalidHealthRef) {
  core::HealthRef bad = CalibratedHealth(ensemble_.get(), train_);
  bad.max = bad.min;  // empty histogram range
  EXPECT_EQ(core::SaveEnsemble(*ensemble_, TempPath("badhealth.caee"), 1.5,
                               nullptr, &bad)
                .code(),
            StatusCode::kInvalidArgument);

  core::HealthRef bad_bins = CalibratedHealth(ensemble_.get(), train_);
  bad_bins.bins[0] = 2.0;  // mass > 1 in a bucket
  EXPECT_EQ(core::SaveEnsemble(*ensemble_, TempPath("badbins.caee"), 1.5,
                               nullptr, &bad_bins)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, SemanticallyCorruptHealthSectionRejected) {
  // A health payload whose CRC checks out but whose fields are nonsense
  // (here: an empty histogram range) must be rejected by ValidateHealthRef
  // on load — the CRC guards bit rot, the validator guards hostile or
  // buggy writers.
  const core::HealthRef health = CalibratedHealth(ensemble_.get(), train_);
  const std::string path = TempPath("corrupt_health.caee");
  ASSERT_TRUE(
      core::SaveEnsemble(*ensemble_, path, 1.5, nullptr, &health).ok());
  std::string bytes = ReadFileBytes(path);

  // The health section is written last: payload = i64 count, f64 min,
  // max, mean, stddev, mean_dispersion, u64 bin count, kHealthBins x f64.
  // Its header (u32 tag, u64 size, u32 crc) sits 16 bytes before the
  // payload.
  const size_t payload_size =
      8 * 6 + 8 + static_cast<size_t>(core::kHealthBins) * sizeof(double);
  const size_t payload_at = bytes.size() - payload_size;
  uint32_t tag = 0;
  std::memcpy(&tag, bytes.data() + payload_at - 16, sizeof(tag));
  ASSERT_EQ(tag, 7u);  // kSectionHealth

  // max := min (offset 8 + 8 into the payload), CRC recomputed.
  std::string corrupt = bytes;
  std::memcpy(&corrupt[payload_at + 16], &health.min, sizeof(double));
  uint32_t new_crc = Crc32(corrupt.data() + payload_at, payload_size);
  std::memcpy(&corrupt[payload_at - 4], &new_crc, sizeof(new_crc));
  WriteFileBytes(path, corrupt);
  auto loaded = core::LoadEnsemble(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("health"), std::string::npos)
      << loaded.status();

  // A lying bin count (the u64 before the bins) is caught before any bin
  // is read — with its own "claims N histogram bins" message.
  corrupt = bytes;
  const uint64_t lying_count = 9999;
  std::memcpy(&corrupt[payload_at + 48], &lying_count, sizeof(lying_count));
  new_crc = Crc32(corrupt.data() + payload_at, payload_size);
  std::memcpy(&corrupt[payload_at - 4], &new_crc, sizeof(new_crc));
  WriteFileBytes(path, corrupt);
  auto lying = core::LoadEnsemble(path);
  ASSERT_FALSE(lying.ok());
  EXPECT_NE(lying.status().message().find("histogram bins"),
            std::string::npos)
      << lying.status();
}

TEST_F(PersistenceTest, SpotAndHealthSectionsCoexist) {
  // caee_train --spot --health writes both optional sections; each loads
  // back independently intact.
  const core::SpotInit spot = CalibratedSpot(ensemble_.get(), train_);
  const core::HealthRef health = CalibratedHealth(ensemble_.get(), train_);
  const std::string path = TempPath("spot_and_health.caee");
  ASSERT_TRUE(
      core::SaveEnsemble(*ensemble_, path, 1.5, &spot, &health).ok());

  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->spot.has_value());
  ASSERT_TRUE(loaded->health.has_value());
  EXPECT_EQ(loaded->spot->t, spot.t);
  EXPECT_EQ(loaded->health->mean, health.mean);
  EXPECT_EQ(loaded->health->count, health.count);
}

TEST_F(PersistenceTest, LoadedSpotServesIdenticallyToInProcessInit) {
  // End to end across the artifact boundary: verdicts from an engine fed
  // the RELOADED init match an engine fed the in-process init, flag for
  // flag.
  const core::SpotInit spot = CalibratedSpot(ensemble_.get(), train_);
  const std::string path = TempPath("spot_serve.caee");
  ASSERT_TRUE(core::SaveEnsemble(*ensemble_, path, 1.5, &spot).ok());
  auto loaded = core::LoadEnsemble(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->spot.has_value());

  const ts::TimeSeries live = testutil::PlantedSeries(80, 2, 5, {60});
  auto scores = ensemble_->Score(live);
  ASSERT_TRUE(scores.ok());

  core::SpotState original(spot);
  core::SpotState reloaded(*loaded->spot);
  for (double s : scores.value()) {
    EXPECT_EQ(original.Observe(s), reloaded.Observe(s));
    ASSERT_EQ(original.threshold(), reloaded.threshold());
  }
}

}  // namespace
}  // namespace caee
