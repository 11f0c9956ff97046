#include "core/persistence.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/binio.h"
#include "common/crc32.h"

namespace caee {
namespace core {

namespace {

enum SectionTag : uint32_t {
  kSectionConfig = 1,
  kSectionScaler = 2,
  kSectionEmbedding = 3,
  kSectionMember = 4,
  kSectionThreshold = 5,
  kSectionSpot = 6,    // optional; absent unless calibrated (header comment)
  kSectionHealth = 7,  // optional; absent unless --health calibrated one
};

// Sanity bounds applied while parsing untrusted artifact bytes. Generous
// relative to anything the library can train, tight enough that a corrupt
// length field cannot drive allocations to absurd sizes.
constexpr uint32_t kMaxSections = 1u << 20;
constexpr int64_t kMaxDims = int64_t{1} << 20;
constexpr int64_t kMaxModels = int64_t{1} << 16;
constexpr int64_t kMaxLayers = 1024;
constexpr int64_t kMaxWindow = int64_t{1} << 20;

std::string TagName(uint32_t tag) {
  switch (tag) {
    case kSectionConfig: return "config";
    case kSectionScaler: return "scaler";
    case kSectionEmbedding: return "embedding";
    case kSectionMember: return "member";
    case kSectionThreshold: return "threshold";
    case kSectionSpot: return "spot";
    case kSectionHealth: return "health";
    default: return "tag " + std::to_string(tag);
  }
}

Status CheckRange(int64_t v, int64_t lo, int64_t hi, const char* what) {
  if (v < lo || v > hi) {
    return Status::InvalidArgument("artifact config field " +
                                   std::string(what) + " = " +
                                   std::to_string(v) + " is out of range [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return Status::OK();
}

Status CheckFinite(float v, const char* what) {
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("artifact config field " +
                                   std::string(what) + " is not finite");
  }
  return Status::OK();
}

Status ReadActivation(std::istream& in, nn::Activation* act,
                      const char* what) {
  uint32_t v = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &v));
  if (v > static_cast<uint32_t>(nn::Activation::kSigmoid)) {
    return Status::InvalidArgument("artifact has unknown activation code " +
                                   std::to_string(v) + " for " + what);
  }
  *act = static_cast<nn::Activation>(v);
  return Status::OK();
}

// The config payload is a fixed field sequence tied to kArtifactVersion
// (bump the version when it changes). Runtime-only knobs (num_threads,
// verbose) are deliberately not persisted: the serving process chooses its
// own parallelism and logging.
void WriteConfigPayload(std::ostream& out, const EnsembleConfig& cfg,
                        int64_t input_dim) {
  io::WritePod(out, input_dim);
  io::WritePod(out, cfg.cae.embed_dim);
  io::WritePod(out, cfg.cae.num_layers);
  io::WritePod(out, cfg.cae.kernel);
  io::WritePod(out, static_cast<uint32_t>(cfg.cae.attention));
  io::WritePod(out, static_cast<uint32_t>(cfg.cae.enc_act));
  io::WritePod(out, static_cast<uint32_t>(cfg.cae.dec_act));
  io::WritePod(out, static_cast<uint32_t>(cfg.cae.recon_act));
  io::WritePod(out, cfg.window);
  io::WritePod(out, cfg.num_models);
  io::WritePod(out, cfg.epochs_per_model);
  io::WritePod(out, cfg.batch_size);
  io::WritePod(out, cfg.lr);
  io::WritePod(out, cfg.lambda);
  io::WritePod(out, cfg.beta);
  io::WritePod(out, cfg.grad_clip);
  io::WritePod(out, cfg.denoise_std);
  io::WritePod(out, cfg.diversity_cap_ratio);
  io::WritePod(out, cfg.diversity_epoch_fraction);
  io::WritePod(out, static_cast<uint8_t>(cfg.diversity_enabled));
  io::WritePod(out, static_cast<uint8_t>(cfg.transfer_enabled));
  io::WritePod(out, static_cast<uint8_t>(cfg.rescale_enabled));
  io::WritePod(out, static_cast<uint8_t>(cfg.shuffle));
  io::WritePod(out, static_cast<uint32_t>(cfg.embed_obs_act));
  io::WritePod(out, static_cast<uint32_t>(cfg.embed_pos_act));
  io::WritePod(out, cfg.max_train_windows);
  io::WritePod(out, cfg.early_stop_rel_tol);
  io::WritePod(out, cfg.seed);
}

Status ParseConfigPayload(std::istream& in, EnsembleConfig* cfg,
                          int64_t* input_dim) {
  CAEE_RETURN_NOT_OK(io::ReadPod(in, input_dim));
  CAEE_RETURN_NOT_OK(CheckRange(*input_dim, 1, kMaxDims, "input_dim"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->cae.embed_dim));
  CAEE_RETURN_NOT_OK(CheckRange(cfg->cae.embed_dim, 1, kMaxDims, "embed_dim"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->cae.num_layers));
  CAEE_RETURN_NOT_OK(
      CheckRange(cfg->cae.num_layers, 1, kMaxLayers, "num_layers"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->cae.kernel));
  CAEE_RETURN_NOT_OK(CheckRange(cfg->cae.kernel, 1, kMaxWindow, "kernel"));
  uint32_t attention = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &attention));
  if (attention > static_cast<uint32_t>(AttentionMode::kAllLayers)) {
    return Status::InvalidArgument("artifact has unknown attention mode " +
                                   std::to_string(attention));
  }
  cfg->cae.attention = static_cast<AttentionMode>(attention);
  CAEE_RETURN_NOT_OK(ReadActivation(in, &cfg->cae.enc_act, "enc_act"));
  CAEE_RETURN_NOT_OK(ReadActivation(in, &cfg->cae.dec_act, "dec_act"));
  CAEE_RETURN_NOT_OK(ReadActivation(in, &cfg->cae.recon_act, "recon_act"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->window));
  CAEE_RETURN_NOT_OK(CheckRange(cfg->window, 2, kMaxWindow, "window"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->num_models));
  CAEE_RETURN_NOT_OK(CheckRange(cfg->num_models, 1, kMaxModels, "num_models"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->epochs_per_model));
  CAEE_RETURN_NOT_OK(
      CheckRange(cfg->epochs_per_model, 1, kMaxWindow, "epochs_per_model"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->batch_size));
  CAEE_RETURN_NOT_OK(CheckRange(cfg->batch_size, 1, kMaxWindow, "batch_size"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->lr));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->lr, "lr"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->lambda));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->lambda, "lambda"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->beta));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->beta, "beta"));
  if (cfg->beta < 0.0f || cfg->beta > 1.0f) {
    return Status::InvalidArgument("artifact beta outside [0, 1]");
  }
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->grad_clip));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->grad_clip, "grad_clip"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->denoise_std));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->denoise_std, "denoise_std"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->diversity_cap_ratio));
  CAEE_RETURN_NOT_OK(
      CheckFinite(cfg->diversity_cap_ratio, "diversity_cap_ratio"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->diversity_epoch_fraction));
  CAEE_RETURN_NOT_OK(
      CheckFinite(cfg->diversity_epoch_fraction, "diversity_epoch_fraction"));
  uint8_t flag = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &flag));
  cfg->diversity_enabled = flag != 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &flag));
  cfg->transfer_enabled = flag != 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &flag));
  cfg->rescale_enabled = flag != 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &flag));
  cfg->shuffle = flag != 0;
  CAEE_RETURN_NOT_OK(ReadActivation(in, &cfg->embed_obs_act, "embed_obs_act"));
  CAEE_RETURN_NOT_OK(ReadActivation(in, &cfg->embed_pos_act, "embed_pos_act"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->max_train_windows));
  CAEE_RETURN_NOT_OK(
      CheckRange(cfg->max_train_windows, 0, int64_t{1} << 40,
                 "max_train_windows"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->early_stop_rel_tol));
  CAEE_RETURN_NOT_OK(CheckFinite(cfg->early_stop_rel_tol,
                                 "early_stop_rel_tol"));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &cfg->seed));
  return Status::OK();
}

void WriteScalerPayload(std::ostream& out, const ts::Scaler& scaler) {
  io::WritePod(out, static_cast<uint64_t>(scaler.mean().size()));
  for (const double m : scaler.mean()) io::WritePod(out, m);
  for (const double s : scaler.stddev()) io::WritePod(out, s);
}

Status ParseScalerPayload(std::istream& in, ts::Scaler* scaler) {
  uint64_t dims = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &dims));
  if (dims == 0 || dims > static_cast<uint64_t>(kMaxDims)) {
    return Status::InvalidArgument("artifact scaler dimensionality " +
                                   std::to_string(dims) + " is out of range");
  }
  std::vector<double> mean(dims), stddev(dims);
  for (auto& m : mean) CAEE_RETURN_NOT_OK(io::ReadPod(in, &m));
  for (auto& s : stddev) CAEE_RETURN_NOT_OK(io::ReadPod(in, &s));
  return scaler->Restore(std::move(mean), std::move(stddev));
}

// Fixed field sequence tied to kArtifactVersion like every other payload
// (the section is optional; its LAYOUT is not negotiable).
void WriteSpotPayload(std::ostream& out, const SpotInit& spot) {
  io::WritePod(out, spot.config.q);
  io::WritePod(out, spot.config.level);
  io::WritePod(out, spot.config.peak_capacity);
  io::WritePod(out, spot.t);
  io::WritePod(out, spot.z);
  io::WritePod(out, spot.n);
  io::WritePod(out, spot.peaks_total);
  io::WritePod(out, static_cast<uint64_t>(spot.peaks.size()));
  for (const double p : spot.peaks) io::WritePod(out, p);
}

Status ParseSpotPayload(std::istream& in, SpotInit* spot) {
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->config.q));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->config.level));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->config.peak_capacity));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->t));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->z));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->n));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &spot->peaks_total));
  uint64_t count = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &count));
  // The allocation bound BEFORE the element loop; everything else
  // (knob ranges, count consistency, finite peaks) is ValidateSpotInit.
  if (count > static_cast<uint64_t>(kSpotMaxPeaks)) {
    return Status::InvalidArgument("artifact spot section claims " +
                                   std::to_string(count) +
                                   " seed peaks (corrupt)");
  }
  spot->peaks.resize(count);
  for (auto& p : spot->peaks) CAEE_RETURN_NOT_OK(io::ReadPod(in, &p));
  Status valid = ValidateSpotInit(*spot);
  if (!valid.ok()) {
    return Status::InvalidArgument("artifact spot section is invalid: " +
                                   valid.message());
  }
  return Status::OK();
}

// Fixed field sequence tied to kArtifactVersion like the spot payload
// (the section is optional; its LAYOUT is not negotiable).
void WriteHealthPayload(std::ostream& out, const HealthRef& health) {
  io::WritePod(out, health.count);
  io::WritePod(out, health.min);
  io::WritePod(out, health.max);
  io::WritePod(out, health.mean);
  io::WritePod(out, health.stddev);
  io::WritePod(out, health.mean_dispersion);
  io::WritePod(out, static_cast<uint64_t>(health.bins.size()));
  for (const double b : health.bins) io::WritePod(out, b);
}

Status ParseHealthPayload(std::istream& in, HealthRef* health) {
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->count));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->min));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->max));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->mean));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->stddev));
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &health->mean_dispersion));
  uint64_t count = 0;
  CAEE_RETURN_NOT_OK(io::ReadPod(in, &count));
  // The allocation bound BEFORE the element loop; everything else (finite
  // stats, bin ranges, histogram mass) is ValidateHealthRef.
  if (count != static_cast<uint64_t>(kHealthBins)) {
    return Status::InvalidArgument("artifact health section claims " +
                                   std::to_string(count) +
                                   " histogram bins (corrupt)");
  }
  health->bins.resize(count);
  for (auto& b : health->bins) CAEE_RETURN_NOT_OK(io::ReadPod(in, &b));
  Status valid = ValidateHealthRef(*health);
  if (!valid.ok()) {
    return Status::InvalidArgument("artifact health section is invalid: " +
                                   valid.message());
  }
  return Status::OK();
}

struct Section {
  uint32_t tag;
  std::string payload;
};

/// Non-owning read-only streambuf over a payload slice of the file buffer —
/// section parsers get istream semantics without copying megabytes of
/// member weights a second time.
class PayloadBuf : public std::streambuf {
 public:
  PayloadBuf(const char* data, size_t size) {
    char* p = const_cast<char*>(data);  // read-only use; setg needs char*
    setg(p, p, p + size);
  }
};

/// Serving processes should never see a half-written artifact: the bytes
/// are written to `path`.tmp, flushed AND fsync'd to stable storage, and
/// only then renamed into place. rename(2) is atomic within a filesystem,
/// so a concurrent reader — or a crash / power loss at any instant — sees
/// either the complete previous artifact or the complete new one, never a
/// torn mix. The fsync before the rename matters: without it the rename
/// can become durable before the data blocks do, and a power loss would
/// leave a valid name pointing at garbage.
Status WriteArtifact(const std::string& path,
                     const std::vector<Section>& sections) {
  std::ostringstream os;
  io::WritePod(os, kArtifactMagic);
  io::WritePod(os, kArtifactVersion);
  io::WritePod(os, static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) {
    io::WritePod(os, section.tag);
    io::WritePod(os, static_cast<uint64_t>(section.payload.size()));
    io::WritePod(os, Crc32(section.payload.data(), section.payload.size()));
    os.write(section.payload.data(),
             static_cast<std::streamsize>(section.payload.size()));
  }
  const std::string blob = os.str();

  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open for write: " + tmp_path);
  }
  bool ok = std::fwrite(blob.data(), 1, blob.size(), out) == blob.size();
  if (ok) ok = std::fflush(out) == 0;
#ifndef _WIN32
  if (ok) ok = ::fsync(::fileno(out)) == 0;
#endif
  if (std::fclose(out) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("write failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot move artifact into place: " + path);
  }
  return Status::OK();
}

/// A payload parser must consume its section exactly; leftover bytes mean
/// the reader and writer disagree about the layout (version-skew bugs would
/// otherwise slip through whenever the prefix happens to parse).
Status CheckFullyConsumed(std::istream& in, uint32_t tag) {
  in.peek();
  if (!in.eof()) {
    return Status::IOError("trailing bytes in " + TagName(tag) + " section");
  }
  return Status::OK();
}

}  // namespace

Status SaveEnsemble(const CaeEnsemble& ensemble, const std::string& path,
                    std::optional<double> threshold, const SpotInit* spot,
                    const HealthRef* health) {
  if (!ensemble.fitted()) {
    return Status::FailedPrecondition("SaveEnsemble needs a fitted ensemble");
  }
  if (threshold.has_value() && !std::isfinite(*threshold)) {
    return Status::InvalidArgument("threshold must be finite");
  }
  if (spot != nullptr) CAEE_RETURN_NOT_OK(ValidateSpotInit(*spot));
  if (health != nullptr) CAEE_RETURN_NOT_OK(ValidateHealthRef(*health));
  const EnsembleConfig& cfg = ensemble.config();
  std::vector<Section> sections;

  {
    std::ostringstream os;
    WriteConfigPayload(os, cfg, ensemble.input_dim());
    sections.push_back({kSectionConfig, os.str()});
  }
  if (cfg.rescale_enabled) {
    std::ostringstream os;
    WriteScalerPayload(os, ensemble.scaler());
    sections.push_back({kSectionScaler, os.str()});
  }
  {
    std::ostringstream os;
    CAEE_RETURN_NOT_OK(
        nn::WriteStateDict(os, nn::GetStateDict(ensemble.embedding())));
    sections.push_back({kSectionEmbedding, os.str()});
  }
  for (int64_t mi = 0; mi < ensemble.num_models(); ++mi) {
    std::ostringstream os;
    CAEE_RETURN_NOT_OK(
        nn::WriteStateDict(os, nn::GetStateDict(ensemble.model(mi))));
    sections.push_back({kSectionMember, os.str()});
  }
  if (threshold.has_value()) {
    std::ostringstream os;
    io::WritePod(os, *threshold);
    sections.push_back({kSectionThreshold, os.str()});
  }
  if (spot != nullptr) {
    std::ostringstream os;
    WriteSpotPayload(os, *spot);
    sections.push_back({kSectionSpot, os.str()});
  }
  if (health != nullptr) {
    std::ostringstream os;
    WriteHealthPayload(os, *health);
    sections.push_back({kSectionHealth, os.str()});
  }
  return WriteArtifact(path, sections);
}

StatusOr<std::string> ReadArtifactImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::error_code error;
  if (!std::filesystem::is_regular_file(path, error)) {
    return Status::IOError("not a regular file: " + path);
  }
  const std::streamoff file_size = in.tellg();
  if (file_size < 0) return Status::IOError("cannot stat: " + path);
  // One sized read into the final buffer (no stringstream double copy —
  // member weights dominate the file).
  std::string data(static_cast<size_t>(file_size), '\0');
  in.seekg(0);
  in.read(data.data(), file_size);
  if (!in) return Status::IOError("read failed: " + path);
  return data;
}

StatusOr<LoadedEnsemble> LoadEnsemble(const std::string& path) {
  auto data = ReadArtifactImage(path);
  if (!data.ok()) return data.status();
  return ParseEnsembleArtifact(data.value(), path);
}

StatusOr<LoadedEnsemble> ParseEnsembleArtifact(const std::string& data,
                                               const std::string& name) {
  constexpr size_t kHeaderBytes = 3 * sizeof(uint32_t);
  constexpr size_t kSectionHeaderBytes =
      sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);
  if (data.size() < kHeaderBytes) {
    return Status::IOError("truncated artifact (no header, " +
                           std::to_string(data.size()) + " bytes): " + name);
  }
  uint32_t magic = 0, version = 0, section_count = 0;
  std::memcpy(&magic, data.data(), sizeof(magic));
  std::memcpy(&version, data.data() + 4, sizeof(version));
  std::memcpy(&section_count, data.data() + 8, sizeof(section_count));
  if (magic != kArtifactMagic) {
    return Status::IOError("not a CAEE ensemble artifact (bad magic): " +
                           name);
  }
  if (version != kArtifactVersion) {
    return Status::InvalidArgument(
        "unsupported artifact version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kArtifactVersion) +
        "; re-run caee_train to regenerate)");
  }
  if (section_count > kMaxSections) {
    return Status::IOError("corrupt artifact (absurd section count)");
  }

  bool have_config = false;
  EnsembleConfig cfg;
  int64_t input_dim = 0;
  ts::Scaler scaler;
  bool have_scaler = false;
  bool have_embedding = false;
  nn::StateDict embedding_state;
  std::vector<nn::StateDict> member_states;
  std::optional<double> threshold;
  std::optional<SpotInit> spot;
  std::optional<HealthRef> health;

  size_t offset = kHeaderBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    if (data.size() - offset < kSectionHeaderBytes) {
      return Status::IOError(
          "truncated artifact (section " + std::to_string(i) +
          " header cut off at byte offset " + std::to_string(offset) + " of " +
          std::to_string(data.size()) + ")");
    }
    const size_t section_offset = offset;
    uint32_t tag = 0, crc = 0;
    uint64_t size = 0;
    std::memcpy(&tag, data.data() + offset, sizeof(tag));
    std::memcpy(&size, data.data() + offset + 4, sizeof(size));
    std::memcpy(&crc, data.data() + offset + 12, sizeof(crc));
    offset += kSectionHeaderBytes;
    // Triage context for every per-section failure: which section, where it
    // starts in the file, how long its payload claims to be. A fault
    // injected (or real) at byte N is attributable from the message alone.
    const std::string where = TagName(tag) + " section at byte offset " +
                              std::to_string(section_offset) + " (payload " +
                              std::to_string(size) + " bytes)";
    if (size > data.size() - offset) {
      return Status::IOError("truncated artifact: " + where +
                             " extends past end of file (" +
                             std::to_string(data.size()) + " bytes)");
    }
    const char* payload = data.data() + offset;
    if (Crc32(payload, static_cast<size_t>(size)) != crc) {
      return Status::IOError("checksum mismatch in " + where + " of " + name);
    }
    PayloadBuf payload_buf(payload, static_cast<size_t>(size));
    std::istream is(&payload_buf);
    // Parse failures inside a section keep their own code but gain the
    // section/offset prefix.
    const auto annotate = [&where](const Status& s) {
      return Status(s.code(), "in " + where + ": " + s.message());
    };
    switch (tag) {
      case kSectionConfig: {
        if (have_config) {
          return Status::IOError("artifact has duplicate config sections");
        }
        Status s = ParseConfigPayload(is, &cfg, &input_dim);
        if (!s.ok()) return annotate(s);
        have_config = true;
        break;
      }
      case kSectionScaler: {
        if (have_scaler) {
          return Status::IOError("artifact has duplicate scaler sections");
        }
        Status s = ParseScalerPayload(is, &scaler);
        if (!s.ok()) return annotate(s);
        have_scaler = true;
        break;
      }
      case kSectionEmbedding: {
        if (have_embedding) {
          return Status::IOError("artifact has duplicate embedding sections");
        }
        auto dict = nn::ReadStateDict(is);
        if (!dict.ok()) return annotate(dict.status());
        embedding_state = std::move(dict).value();
        have_embedding = true;
        break;
      }
      case kSectionMember: {
        auto dict = nn::ReadStateDict(is);
        if (!dict.ok()) return annotate(dict.status());
        member_states.push_back(std::move(dict).value());
        break;
      }
      case kSectionThreshold: {
        if (threshold.has_value()) {
          return Status::IOError("artifact has duplicate threshold sections");
        }
        double value = 0.0;
        Status s = io::ReadPod(is, &value);
        if (!s.ok()) return annotate(s);
        if (!std::isfinite(value)) {
          return Status::IOError("in " + where +
                                 ": artifact threshold is not finite");
        }
        threshold = value;
        break;
      }
      case kSectionSpot: {
        if (spot.has_value()) {
          return Status::IOError("artifact has duplicate spot sections");
        }
        SpotInit parsed;
        Status s = ParseSpotPayload(is, &parsed);
        if (!s.ok()) return annotate(s);
        spot = std::move(parsed);
        break;
      }
      case kSectionHealth: {
        if (health.has_value()) {
          return Status::IOError("artifact has duplicate health sections");
        }
        HealthRef parsed;
        Status s = ParseHealthPayload(is, &parsed);
        if (!s.ok()) return annotate(s);
        health = std::move(parsed);
        break;
      }
      default:
        return Status::IOError("unknown artifact section " + where +
                               " (version skew?)");
    }
    Status consumed = CheckFullyConsumed(is, tag);
    if (!consumed.ok()) return annotate(consumed);
    offset += size;
  }
  if (offset != data.size()) {
    return Status::IOError(
        "artifact has trailing bytes after last section (sections end at "
        "byte offset " +
        std::to_string(offset) + ", file is " + std::to_string(data.size()) +
        " bytes)");
  }
  if (!have_config) {
    return Status::IOError("artifact is missing its config section");
  }
  if (!have_embedding) {
    return Status::IOError("artifact is missing its embedding section");
  }
  if (cfg.rescale_enabled && !have_scaler) {
    return Status::IOError(
        "artifact enables rescaling but has no scaler section");
  }
  if (!cfg.rescale_enabled && have_scaler) {
    return Status::IOError(
        "artifact disables rescaling but carries a scaler section");
  }

  auto ensemble = CaeEnsemble::Restore(cfg, input_dim, embedding_state,
                                       member_states, std::move(scaler));
  if (!ensemble.ok()) return ensemble.status();
  LoadedEnsemble loaded;
  loaded.ensemble = std::move(ensemble).value();
  loaded.threshold = threshold;
  loaded.spot = std::move(spot);
  loaded.health = std::move(health);
  return loaded;
}

}  // namespace core
}  // namespace caee
