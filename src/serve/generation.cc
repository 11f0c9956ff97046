#include "serve/generation.h"

#include <chrono>
#include <thread>
#include <utility>

namespace caee {
namespace serve {

StatusOr<std::shared_ptr<Generation>> LoadGeneration(
    const std::string& path, int64_t id, const LoadRetryPolicy& retry,
    FaultInjector* fault) {
  const int attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  Status last = Status::IOError("no read attempt was made");
  std::string image;
  bool have_image = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && retry.backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry.backoff_ms << (attempt - 1)));
    }
    if (fault != nullptr) {
      const int32_t delay =
          fault->load_delay_ms.load(std::memory_order_relaxed);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      if (fault->ConsumeFailLoad()) {
        last = Status::IOError("injected transient load failure: " + path);
        continue;
      }
    }
    // Read failures are the TRANSIENT class (the file may be mid-rename
    // from a concurrent SaveEnsemble, or the filesystem hiccuped): retried.
    auto data = core::ReadArtifactImage(path);
    if (!data.ok()) {
      last = data.status();
      continue;
    }
    image = std::move(data).value();
    have_image = true;
    break;
  }
  if (!have_image) {
    return Status::IOError("artifact load failed after " +
                           std::to_string(attempts) + " attempt(s): " +
                           last.message());
  }

  // Corruption is permanent: the image is parsed ONCE, and any failure —
  // truncation, a flipped bit under a section CRC, an invalid field —
  // comes back immediately with the section tag and byte offset attached.
  if (fault != nullptr) fault->MutateImage(&image);
  auto loaded = core::ParseEnsembleArtifact(image, path);
  if (!loaded.ok()) return loaded.status();

  auto gen = std::make_shared<Generation>();
  gen->id = id;
  gen->source = path;
  gen->owned_ensemble = std::move(loaded->ensemble);
  gen->ensemble = gen->owned_ensemble.get();
  gen->threshold = loaded->threshold;
  if (loaded->spot.has_value()) {
    gen->spot = std::make_unique<const core::SpotInit>(
        std::move(*loaded->spot));
  }
  if (loaded->health.has_value()) {
    gen->health = std::make_unique<const core::HealthRef>(
        std::move(*loaded->health));
  }
  return gen;
}

}  // namespace serve
}  // namespace caee
