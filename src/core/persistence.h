// Ensemble artifact persistence: the offline-train / online-serve seam.
//
// A fitted CaeEnsemble (plus the calibrated alert threshold) is written to a
// single versioned binary file that a separate serving process loads and
// serves (src/serve/) — the paper's Sec. 4.2.7 lifecycle (train
// offline, score arriving observations with frozen forward passes) split
// across processes.
//
// File layout (all integers host-endian; full format reference, hardening
// notes, and version policy in docs/persistence.md):
//
//   header   : u32 magic  u32 version  u32 section_count
//   section* : u32 tag    u64 payload_size    u32 crc32(payload)   payload
//
// Sections, in order: kConfig, kScaler (only when rescaling is enabled),
// kEmbedding, kMember x num_models, kThreshold (only when calibrated),
// kSpot (only when SPOT init params were calibrated — docs/thresholds.md),
// kHealth (only when a model-health reference was calibrated with
// caee_train --health — docs/operations.md).
// Every section is CRC-checked before it is parsed, and every parsed field
// is range-validated, so truncated, bit-flipped, or version-skewed artifacts
// fail with a descriptive Status — never UB.
//
// Version policy: `kArtifactVersion` names the layout of the header, the
// section framing, AND the per-section payloads. Any change to any of those
// bumps the version; readers accept exactly their own version (no silent
// forward/backward reading). The one extension that does NOT bump it:
// adding a new OPTIONAL section tag, written only on explicit request —
// artifacts that omit it are byte-identical to what older writers produce,
// and an old reader given a new-section artifact fails with its descriptive
// unknown-section error (the same clean failure a version bump gives).
// Old artifacts are regenerated by re-running caee_train — weights are
// cheap to reproduce from the seed, so migration machinery is deliberately
// out of scope.

#ifndef CAEE_CORE_PERSISTENCE_H_
#define CAEE_CORE_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/ensemble.h"
#include "core/health.h"
#include "core/spot.h"

namespace caee {
namespace core {

inline constexpr uint32_t kArtifactMagic = 0x45454143;  // "CAEE" on disk
inline constexpr uint32_t kArtifactVersion = 1;

/// \brief What LoadEnsemble hands a serving process: the rebuilt ensemble,
/// the calibrated alert threshold (when one was saved), the SPOT
/// streaming-threshold init params (when calibrated with --spot; the serve
/// layer needs them to open kSpot sessions — docs/thresholds.md), and the
/// model-health calibration reference (when calibrated with --health; the
/// serve layer's HealthMonitor and canary phase need it —
/// docs/operations.md).
struct LoadedEnsemble {
  std::unique_ptr<CaeEnsemble> ensemble;
  std::optional<double> threshold;
  std::optional<SpotInit> spot;
  std::optional<HealthRef> health;
};

/// \brief Write a fitted ensemble (and optionally a calibrated threshold,
/// SPOT init params, and a model-health reference) to `path`. Omitted
/// optionals write no section — the default artifact's bytes are unchanged
/// from before SPOT/health existed. Fails with a Status if the ensemble is
/// not fitted, `spot` fails ValidateSpotInit, `health` fails
/// ValidateHealthRef, or the file cannot be written.
///
/// The write is crash-atomic: bytes go to `path`.tmp, are fsync'd to stable
/// storage, and only then renamed over `path`. A crash, power loss, or full
/// disk at any instant leaves either the complete previous artifact or the
/// complete new one — never a torn file. This is what lets a serving
/// process hot-swap an artifact a repair job is concurrently rewriting
/// (docs/operations.md).
Status SaveEnsemble(const CaeEnsemble& ensemble, const std::string& path,
                    std::optional<double> threshold = std::nullopt,
                    const SpotInit* spot = nullptr,
                    const HealthRef* health = nullptr);

/// \brief Load an artifact written by SaveEnsemble. The returned ensemble is
/// fitted and scores bitwise-identically to the one that was saved.
StatusOr<LoadedEnsemble> LoadEnsemble(const std::string& path);

/// \brief Read the whole file at `path` into memory, unparsed. IOError when
/// it cannot be opened or read, or is not a regular file (a directory
/// opens for reading but has no artifact size).
StatusOr<std::string> ReadArtifactImage(const std::string& path);

/// \brief Parse an artifact image already in memory. `name` labels error
/// messages (a path, or a description of where the bytes came from).
/// LoadEnsemble is ReadArtifactImage + this; the split exists so the
/// serving layer can separate transient read failures (worth retrying)
/// from corruption (not), and so fault-injection tests can corrupt the
/// buffer without touching the filesystem. Every failure message names the
/// offending section and its byte offset in the image.
StatusOr<LoadedEnsemble> ParseEnsembleArtifact(const std::string& data,
                                               const std::string& name);

}  // namespace core
}  // namespace caee

#endif  // CAEE_CORE_PERSISTENCE_H_
