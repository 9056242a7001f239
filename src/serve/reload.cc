#include "serve/reload.h"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <utility>

#include "fault/fault.h"
#include "obs/admin_server.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::serve {

namespace {

// Patches the per-state fallback pointer: HardenedOptions carries a borrowed
// DegradedRanker*, and each ServingState owns its own ranker, so the pointer
// must be rewritten per state (or cleared when fallback is off).
HardenedOptions WithFallback(HardenedOptions hardened,
                             const DegradedRanker* degraded) {
  hardened.degraded = degraded;
  return hardened;
}

// stat(2) identity of the watched artifact, encoded for trivial equality.
// The inode is load-bearing: the write-sibling-then-rename publish always
// allocates a fresh inode, while mtime comes from the kernel's coarse
// clock — a same-size replacement landing within one tick of the original
// is invisible to (mtime, size) alone. An unreadable / missing path
// encodes as "" so it never matches a real fingerprint (and never
// triggers a reload by itself).
std::string FingerprintOf(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return std::string();
  return util::StrFormat(
      "%llu:%llu:%lld.%09lld:%lld", static_cast<unsigned long long>(st.st_dev),
      static_cast<unsigned long long>(st.st_ino),
      static_cast<long long>(st.st_mtim.tv_sec),
      static_cast<long long>(st.st_mtim.tv_nsec),
      static_cast<long long>(st.st_size));
}

}  // namespace

ServingState::ServingState(uint64_t version, std::string path,
                           ModelSnapshot snapshot,
                           const data::InteractionMatrix* seen,
                           HardenedOptions hardened, bool degraded_fallback)
    : version_(version),
      path_(std::move(path)),
      load_unix_s_(static_cast<int64_t>(std::time(nullptr))),
      engine_(std::move(snapshot), seen),
      degraded_(&engine_),
      executor_(&engine_,
                WithFallback(hardened,
                             degraded_fallback ? &degraded_ : nullptr)) {}

SnapshotManager::SnapshotManager(Options options)
    : options_(std::move(options)) {}

SnapshotManager::~SnapshotManager() { Stop(); }

util::StatusOr<std::unique_ptr<SnapshotManager>> SnapshotManager::Create(
    Options options, std::optional<ModelSnapshot> preloaded) {
  if (options.path.empty()) {
    return util::Status::InvalidArgument("SnapshotManager needs a path");
  }
  std::unique_ptr<SnapshotManager> manager(
      new SnapshotManager(std::move(options)));
  {
    std::lock_guard<std::mutex> lock(manager->reload_mutex_);
    HOSR_RETURN_IF_ERROR(manager->ReloadLocked(manager->options_.path,
                                               std::move(preloaded)));
  }
  return manager;
}

std::shared_ptr<const ServingState> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return active_;
}

SnapshotManager::Served SnapshotManager::Serve(uint32_t user, uint32_t k,
                                               uint64_t token,
                                               Deadline deadline) const {
  // One acquire pins the request's generation: ranking, fallback, scores
  // and cache key all come from this state even if a swap lands
  // mid-request.
  std::shared_ptr<const ServingState> state = Acquire();
  ResultCache* const cache = options_.cache;
  if (cache != nullptr) {
    std::vector<float> scores;
    if (auto hit = cache->Get(user, k, state->version(), &scores)) {
      return Served{std::move(state),
                    ServeResponse{std::move(*hit), /*degraded=*/false,
                                  std::move(scores)},
                    /*from_cache=*/true};
    }
  }
  util::StatusOr<ServeResponse> response =
      state->executor().Execute(user, k, token, deadline);
  if (cache != nullptr && response.ok() && !response->degraded) {
    cache->Put(user, k, response->items, state->version(), response->scores);
  }
  return Served{std::move(state), std::move(response), /*from_cache=*/false};
}

util::Status SnapshotManager::ReloadNow(const std::string& path) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  return ReloadLocked(path.empty() ? options_.path : path, std::nullopt);
}

util::Status SnapshotManager::ReloadLocked(
    const std::string& path, std::optional<ModelSnapshot> preloaded) {
  const std::shared_ptr<const ServingState> previous = Acquire();
  const uint64_t version = previous != nullptr ? previous->version() + 1 : 1;

  auto candidate = LoadAndValidate(path, version, std::move(preloaded));
  if (!candidate.ok()) {
    reloads_rejected_ += 1;
    reject_streak_ += 1;
    HOSR_COUNTER("serve/reload_rejected").Increment();
    obs::HealthTracker::Global().ReportReload(/*ok=*/false);
    HOSR_LOG(Warning) << "reload rejected (active v"
                      << (previous != nullptr ? previous->version() : 0)
                      << " keeps serving): " << candidate.status();
    if (obs::FlightRecorder::Global().armed()) {
      obs::FlightRecorder::Global().Note(util::StrFormat(
          "reload rejected: %s (candidate %s, streak %llu)",
          candidate.status().ToString().c_str(), path.c_str(),
          static_cast<unsigned long long>(reject_streak_)));
      (void)obs::FlightRecorder::Global().DumpNow("reload_rejected");
    }
    NotifyListenerLocked();
    return candidate.status();
  }

  std::shared_ptr<const ServingState> replaced = std::move(candidate).value();
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    active_.swap(replaced);
  }
  if (options_.cache != nullptr) {
    // Pre-swap entries become misses and racing Puts from requests still on
    // the old state are dropped — a post-swap query can never observe
    // pre-swap scores (the stale-cache hazard).
    options_.cache->Advance(version);
  }
  reject_streak_ = 0;
  obs::HealthTracker::Global().ReportReload(/*ok=*/true);
  HOSR_GAUGE("serve/active_snapshot_version")
      .Set(static_cast<double>(version));
  if (version > 1) {
    reloads_ok_ += 1;
    HOSR_COUNTER("serve/reloads").Increment();
  }
  HOSR_LOG(Info) << "snapshot v" << version << " active (" << path << ")";
  if (obs::FlightRecorder::Global().armed()) {
    obs::FlightRecorder::Global().Note(util::StrFormat(
        "snapshot swapped: v%llu from %s",
        static_cast<unsigned long long>(version), path.c_str()));
  }
  NotifyListenerLocked();
  return util::Status::Ok();
}

util::StatusOr<std::shared_ptr<const ServingState>>
SnapshotManager::LoadAndValidate(const std::string& path, uint64_t version,
                                 std::optional<ModelSnapshot> preloaded) {
  // Chaos hook for the soak harness: a torn disk read / NFS hiccup.
  HOSR_RETURN_IF_ERROR(fault::Inject("snapshot.load"));

  ModelSnapshot snapshot;
  if (preloaded.has_value()) {
    snapshot = std::move(preloaded).value();
  } else {
    // CRC footer + magic/version/endian/shape checks: corrupt or truncated
    // candidates surface here as clean Status errors.
    HOSR_ASSIGN_OR_RETURN(snapshot, LoadSnapshot(path));
  }

  // The user/item space is load-bearing: seen-item exclusion lists, cached
  // results, and in-flight request streams are all indexed by it. A
  // candidate that changes it is a different serving universe, not a
  // refresh — reject before the engine ctor can CHECK-fail on it.
  const std::shared_ptr<const ServingState> current = Acquire();
  if (current != nullptr &&
      (snapshot.num_users() != current->engine().num_users() ||
       snapshot.num_items() != current->engine().num_items())) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "candidate %ux%u does not match active %ux%u",
        snapshot.num_users(), snapshot.num_items(),
        current->engine().num_users(), current->engine().num_items()));
  }
  if (options_.seen != nullptr &&
      (snapshot.num_users() != options_.seen->num_users() ||
       snapshot.num_items() != options_.seen->num_items())) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "candidate %ux%u does not match seen-item matrix %ux%u",
        snapshot.num_users(), snapshot.num_items(),
        options_.seen->num_users(), options_.seen->num_items()));
  }

  const std::shared_ptr<const ServingState> state =
      std::make_shared<const ServingState>(
          version, path, std::move(snapshot), options_.seen,
          options_.hardened, options_.degraded_fallback);

  HOSR_RETURN_IF_ERROR(fault::Inject("reload.validate"));

  // Probe-query gate: score a fixed spread of users through the candidate
  // before anyone can be routed to it. Probes run with kNoFaultToken, so an
  // armed engine.score chaos spec cannot veto a healthy snapshot.
  const uint32_t num_users = state->engine().num_users();
  const uint32_t probes = std::min(options_.probe_users, num_users);
  for (uint32_t j = 0; j < probes; ++j) {
    const uint32_t user = static_cast<uint32_t>(
        static_cast<uint64_t>(j) * num_users / probes);
    auto probe = state->engine().TryTopKForUser(user, options_.probe_k,
                                                kNoDeadline, kNoFaultToken);
    if (!probe.ok()) {
      return util::Status::DataLoss(util::StrFormat(
          "probe query failed for user %u: %s", user,
          probe.status().ToString().c_str()));
    }
    if (probe->empty()) {
      return util::Status::DataLoss(
          util::StrFormat("probe query empty for user %u", user));
    }
    for (const uint32_t item : *probe) {
      const float score = state->engine().snapshot().Score(user, item);
      if (!std::isfinite(score)) {
        return util::Status::DataLoss(util::StrFormat(
            "non-finite score %f for user %u item %u", score, user, item));
      }
    }
  }
  return state;
}

void SnapshotManager::StartWatcher() {
  if (options_.poll_interval_s <= 0.0) return;
  std::lock_guard<std::mutex> lock(watcher_mutex_);
  if (watcher_.joinable()) return;
  watcher_stop_ = false;
  // The baseline is captured here, not in the thread: once StartWatcher()
  // returns, any replacement of the artifact — even one that lands before
  // the watcher thread is first scheduled — reads as a change.
  watcher_ = std::thread(
      [this, baseline = FingerprintOf(options_.path)]() mutable {
        WatchLoop(std::move(baseline));
      });
}

void SnapshotManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(watcher_mutex_);
    watcher_stop_ = true;
  }
  watcher_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

void SnapshotManager::WatchLoop(std::string baseline) {
  // The file as fingerprinted at StartWatcher() is the baseline; a rejected
  // candidate is remembered too, so the watcher does not hammer a bad
  // artifact — it retries only once the file changes again.
  std::string last_attempted = std::move(baseline);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watcher_mutex_);
      watcher_cv_.wait_for(
          lock, std::chrono::duration<double>(options_.poll_interval_s),
          [this] { return watcher_stop_; });
      if (watcher_stop_) return;
    }
    const std::string now = FingerprintOf(options_.path);
    if (now.empty() || now == last_attempted) continue;
    last_attempted = now;
    HOSR_COUNTER("serve/reload_watch_triggers").Increment();
    (void)ReloadNow(options_.path);  // outcome recorded in stats/counters
  }
}

SnapshotManager::Stats SnapshotManager::GetStats() const {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  return StatsLocked();
}

void SnapshotManager::SetReloadListener(
    std::function<void(const Stats&)> listener) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  listener_ = std::move(listener);
  NotifyListenerLocked();
}

SnapshotManager::Stats SnapshotManager::StatsLocked() const {
  Stats stats;
  const std::shared_ptr<const ServingState> state = Acquire();
  if (state != nullptr) {
    stats.active_version = state->version();
    stats.active_path = state->path();
    stats.active_load_unix_s = state->load_unix_s();
  }
  stats.reloads_ok = reloads_ok_;
  stats.reloads_rejected = reloads_rejected_;
  stats.reject_streak = reject_streak_;
  return stats;
}

void SnapshotManager::NotifyListenerLocked() {
  if (listener_) listener_(StatsLocked());
}

}  // namespace hosr::serve
