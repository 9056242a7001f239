#ifndef HOSR_OBS_ADMIN_SERVER_H_
#define HOSR_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace hosr::obs {

// Process-wide health and readiness state, surfaced by the admin server's
// /healthz and /readyz endpoints.
//
//  * Readiness is binary and host-driven: the serving binary flips it true
//    once the snapshot is loaded and the engine has answered a probe query.
//  * Health is outcome-driven: request paths report success/failure
//    (deadline-exceeded and shed count as failures) and a sustained failure
//    rate over the recent-outcome window flips health to degraded. Health
//    recovers automatically once the windowed rate drops back down.
//  * Snapshot reloads report too: a streak of kReloadDegradedStreak
//    consecutive rejected reloads flips health to degraded — the serving
//    answers may still be fine, but the model is stuck on a stale snapshot
//    and an operator should look (docs/ROBUSTNESS.md runbook). One
//    successful reload clears the streak.
class HealthTracker {
 public:
  // Window halves once ok+failed reaches 2*kWindow, so the rate tracks
  // roughly the last few hundred requests rather than process lifetime.
  static constexpr uint64_t kWindow = 256;
  // Fewer recent outcomes than this and health stays "ok" (not enough
  // signal to declare degradation).
  static constexpr uint64_t kMinSamples = 32;
  // Windowed failure rate at or above this flips /healthz to degraded/503.
  static constexpr double kDegradedThreshold = 0.5;
  // Consecutive rejected snapshot reloads that flip /healthz to degraded.
  static constexpr uint64_t kReloadDegradedStreak = 2;

  static HealthTracker& Global();

  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_relaxed);
  }
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  // `failed` = the request ended deadline-exceeded, shed, or errored.
  void ReportOutcome(bool failed);

  // `ok` = a snapshot reload swapped successfully (clears the reject
  // streak); false = the candidate was rejected by the validation gate.
  void ReportReload(bool ok);
  uint64_t reload_reject_streak() const {
    return reload_reject_streak_.load(std::memory_order_relaxed);
  }

  bool healthy() const;
  // Windowed failure rate in [0, 1] (0 when no outcomes reported yet).
  double FailureRate() const;

  void ResetForTesting();

 private:
  std::atomic<bool> ready_{false};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> reload_reject_streak_{0};
  std::mutex decay_mutex_;
};

// One parsed admin HTTP response (see AdminHttpGet).
struct HttpResponse {
  int status_code = 0;
  std::string body;
  // Response media type; /profilez serves text/plain collapsed stacks,
  // everything else JSON. (Ignored on the client-parse side.)
  std::string content_type = "application/json";
};

// Dependency-free blocking HTTP/1.0 admin endpoint: one listener thread
// accepts loopback connections and a small handler pool serves them. GET
// plus one mutating verb, POST /reloadz; every response closes the
// connection. Endpoints:
//
//   /metricsz  metrics registry JSON (same schema as --metrics_out)
//   /healthz   {"status": "ok"|"degraded", ...}; 503 when degraded
//   /readyz    {"ready": true|false}; 503 until the host flips readiness
//   /varz      build/runtime info: host-set vars + uptime + port
//   /tracez    recent spans as Chrome trace_event JSON (same as --trace_out)
//   /profilez  sample the process CPU for ?seconds=N (default 1, max 30)
//              and return flamegraph-ready collapsed stacks as text/plain;
//              concurrent requests share the active profiling window, and
//              a continuous --profile_out session answers from its
//              accumulated snapshot instead of restarting the timer
//   /timeseriez windowed metric history JSON (?metric=SUBSTR to filter
//              series, ?windows=N to bound points per series)
//   /reloadz   POST only: runs the host-registered reload handler
//              (hosr_serve wires SnapshotManager::ReloadNow) and answers
//              200 on swap / 503 on reject; 404 when no handler is set
//
// The server reads shared observability state (registry, trace buffers,
// HealthTracker) through their own thread-safe interfaces, so it can run
// concurrently with the serving hot path without adding any locking to it.
class AdminServer {
 public:
  struct Options {
    int port = 0;  // 0 = kernel-assigned ephemeral port
  };

  explicit AdminServer(Options options);
  ~AdminServer();  // Stop()s if still running

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds 127.0.0.1:<port>, starts the listener and handler threads.
  util::Status Start();

  // Shuts the listener down and joins all threads (idempotent).
  void Stop();

  // The actually bound port (resolves Options::port == 0); valid after a
  // successful Start().
  int port() const { return port_; }

  // Key/value pairs surfaced verbatim under "vars" in /varz. Hosts publish
  // build info, kernel dispatch level, snapshot version, etc. (obs cannot
  // link hosr_kernels — the dependency points the other way — so dispatch
  // info arrives through here.)
  void SetVar(std::string_view key, std::string_view value);

  // Registers the POST /reloadz action. The handler runs on an admin
  // handler thread (never a serving thread) and returns the full HTTP
  // response; an empty function unregisters.
  void SetReloadHandler(std::function<HttpResponse()> handler);

  // Renders the response for an endpoint path without a socket round trip
  // (the transport-independent core of the handler; exposed for tests).
  HttpResponse HandlePath(std::string_view path) const;

  // Same, for POST requests (today: /reloadz only).
  HttpResponse HandlePost(std::string_view path) const;

 private:
  void ListenLoop();
  void HandlerLoop();
  void ServeConnection(int fd) const;

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int64_t start_ns_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::thread listener_;
  std::vector<std::thread> handlers_;

  // Accepted connections waiting for a handler; -1 is the shutdown sentinel.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;

  mutable std::mutex vars_mutex_;
  std::map<std::string, std::string, std::less<>> vars_;

  mutable std::mutex reload_mutex_;
  std::function<HttpResponse()> reload_handler_;
};

// Minimal blocking HTTP/1.0 GET against 127.0.0.1:<port> — the client half
// used by tests, benches, and smoke scripts that cannot shell out to curl.
// Transport failures (connect/read) come back as a non-OK status; HTTP-level
// errors are an OK status with the response's status_code set (503 from
// /healthz is a successful round trip).
util::StatusOr<HttpResponse> AdminHttpGet(int port, const std::string& path);

// POST counterpart (empty body) — used to fire /reloadz from tests and the
// soak harness.
util::StatusOr<HttpResponse> AdminHttpPost(int port, const std::string& path);

}  // namespace hosr::obs

#endif  // HOSR_OBS_ADMIN_SERVER_H_
