#ifndef HOSR_SERVE_RELOAD_H_
#define HOSR_SERVE_RELOAD_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "data/interactions.h"
#include "serve/cache.h"
#include "serve/degraded.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/snapshot.h"
#include "util/statusor.h"

namespace hosr::serve {

// One immutable generation of the serving stack: an InferenceEngine over a
// loaded snapshot plus the hardened pipeline built on top of it. A state is
// constructed whole, published in one pointer swap by the SnapshotManager,
// and never mutated afterwards — requests that acquired it keep it alive
// through the shared_ptr refcount, so a swap never invalidates an in-flight
// request.
class ServingState {
 public:
  ServingState(uint64_t version, std::string path, ModelSnapshot snapshot,
               const data::InteractionMatrix* seen, HardenedOptions hardened,
               bool degraded_fallback);

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  uint64_t version() const { return version_; }
  const std::string& path() const { return path_; }
  // Wall-clock seconds when this state was built (admin /varz surface).
  int64_t load_unix_s() const { return load_unix_s_; }

  const InferenceEngine& engine() const { return engine_; }
  const HardenedExecutor& executor() const { return executor_; }

 private:
  uint64_t version_;
  std::string path_;
  int64_t load_unix_s_;
  InferenceEngine engine_;
  DegradedRanker degraded_;
  HardenedExecutor executor_;
};

// Zero-downtime snapshot hot-swap (docs/ROBUSTNESS.md "Hot reload &
// overload control"): owns a shared_ptr to the active ServingState behind a
// mutex and is the one serving pipeline. Each request runs through Serve(),
// which acquires the current state — one shared_ptr copy under the mutex —
// and answers entirely from it; ReloadNow() (admin POST /reloadz) or the
// mtime watcher loads and validates a candidate OFF the serving threads,
// then swaps the pointer under the same mutex. In-flight requests finish on
// the state they acquired; every later request sees the new one. A pinned
// snapshot is a manager whose watcher is never started.
//
// Validation gate, in order, all failures rolling back to the active state:
//   1. snapshot.load fault point (chaos hook for the soak harness);
//   2. LoadSnapshot — whole-file CRC footer + magic/version/endian/shape
//      header checks via the existing reader;
//   3. shape check — the candidate must keep the active user/item space
//      (the seen-item exclusion lists and live request streams are indexed
//      by it);
//   4. reload.validate fault point;
//   5. probe-query gate — a fixed spread of `probe_users` users is scored
//      through the candidate engine; any error, empty ranking, or
//      non-finite score rejects the candidate.
//
// A rejected reload increments serve/reload_rejected, bumps the
// HealthTracker reload-failure streak (two consecutive rejects degrade
// /healthz), notes + dumps through the flight recorder when armed, and
// leaves the active state untouched. A successful swap bumps
// serve/reloads, publishes serve/active_snapshot_version, advances the
// ResultCache generation (pre-swap entries become misses, in-flight stale
// Puts are dropped), and resets the failure streak.
class SnapshotManager {
 public:
  struct Options {
    // Snapshot artifact to load at Create() and to watch for changes.
    std::string path;
    // Per-user seen-item exclusion, borrowed; must outlive the manager.
    const data::InteractionMatrix* seen = nullptr;
    // Hardening config for each state's executor.
    HardenedOptions hardened;
    // Build a popularity fallback ranker per state.
    bool degraded_fallback = true;
    // Probe-query gate: this many users spread across the id space, each
    // asked for a top-`probe_k` ranking.
    uint32_t probe_users = 8;
    uint32_t probe_k = 10;
    // Watcher poll cadence; <= 0 leaves the watcher off even if
    // StartWatcher() is called.
    double poll_interval_s = 0.5;
    // Result cache that Serve() reads and fills, generation-advanced on
    // every swap; borrowed, may be null (no caching).
    ResultCache* cache = nullptr;
  };

  struct Stats {
    uint64_t active_version = 0;
    std::string active_path;
    int64_t active_load_unix_s = 0;
    uint64_t reloads_ok = 0;       // successful swaps after the initial load
    uint64_t reloads_rejected = 0;
    uint64_t reject_streak = 0;    // consecutive rejects since the last swap
  };

  // Loads and validates the initial snapshot (same gate as a reload).
  // `preloaded` skips re-reading options.path when the caller already holds
  // the parsed snapshot (hosr_serve loads it for metadata first).
  static util::StatusOr<std::unique_ptr<SnapshotManager>> Create(
      Options options, std::optional<ModelSnapshot> preloaded = std::nullopt);

  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // The current state, kept alive at least as long as the returned
  // pointer. One shared_ptr copy under active_mutex_.
  std::shared_ptr<const ServingState> Acquire() const;

  // One request's answer and the generation that produced it.
  struct Served {
    // The state the request ran on; the response's scores come from its
    // snapshot.
    std::shared_ptr<const ServingState> state;
    util::StatusOr<ServeResponse> response;
    bool from_cache = false;
  };

  // The request path of every front end (net::NetServer, hosr_serve's
  // replay): acquires the active state, answers (user, k) from
  // options.cache under that state's version, and on a miss runs the
  // state's HardenedExecutor with `token` (the request's fault and retry
  // identity) and `deadline`, caching the answer and its scores unless it
  // is degraded. Thread-safe.
  Served Serve(uint32_t user, uint32_t k, uint64_t token,
               Deadline deadline = kNoDeadline) const;

  // Loads + validates + swaps synchronously (empty `path` reloads
  // options.path). Serialized against other reloads and the watcher; on
  // any failure the active state is untouched and the error returned.
  util::Status ReloadNow(const std::string& path = "");

  // Starts the mtime/size poller over options.path (no-op when
  // poll_interval_s <= 0 or already running). A changed file triggers one
  // reload attempt; a rejected candidate is not retried until the file
  // changes again.
  void StartWatcher();

  // Stops the watcher thread (idempotent; also runs on destruction).
  void Stop();

  Stats GetStats() const;

  // Invoked (under the reload lock) after the initial load and after every
  // reload attempt — success or reject — with fresh stats. Hosts publish
  // /varz state from here.
  void SetReloadListener(std::function<void(const Stats&)> listener);

 private:
  SnapshotManager(Options options);

  // The validation gate. Returns the candidate state ready to publish.
  util::StatusOr<std::shared_ptr<const ServingState>> LoadAndValidate(
      const std::string& path, uint64_t version,
      std::optional<ModelSnapshot> preloaded);
  // Shared tail of Create()/ReloadNow(): runs the gate, swaps or rolls
  // back, maintains counters/streaks/listener. Caller holds reload_mutex_.
  util::Status ReloadLocked(const std::string& path,
                            std::optional<ModelSnapshot> preloaded);
  // `baseline` is the watched file's fingerprint captured synchronously in
  // StartWatcher(), so a replace that lands before the thread first runs
  // still registers as a change.
  void WatchLoop(std::string baseline);
  // Caller holds reload_mutex_.
  Stats StatsLocked() const;
  void NotifyListenerLocked();

  Options options_;
  // Copied under the mutex by Acquire() and swapped under it by a reload,
  // which drops the replaced state only after unlocking.
  mutable std::mutex active_mutex_;
  std::shared_ptr<const ServingState> active_;

  mutable std::mutex reload_mutex_;  // serializes reload attempts
  uint64_t reloads_ok_ = 0;
  uint64_t reloads_rejected_ = 0;
  uint64_t reject_streak_ = 0;
  std::function<void(const Stats&)> listener_;

  std::mutex watcher_mutex_;
  std::condition_variable watcher_cv_;
  bool watcher_stop_ = false;
  std::thread watcher_;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_RELOAD_H_
