// hosr_serve — serving-side load driver over a frozen ModelSnapshot.
//
// Loads a snapshot exported by `hosr_cli train --snapshot_out=FILE` into a
// serve::SnapshotManager (with seen-item filtering when --data is given),
// then either replays a scripted or synthetic top-K request stream in
// process (the default) or serves the hosr::net wire protocol over TCP
// (--port). Both modes send every request through the manager's one
// pipeline (SnapshotManager::Serve: result cache, then the hardened
// executor of the active snapshot), and both can hot-swap the snapshot.
// Replay mode reports achieved QPS, exact p50/p95/p99 latency, and cache
// hit rate — on stdout as JSON, to --summary_out, and through the
// hosr::obs registry. Server mode runs until SIGTERM/SIGINT (or
// --serve_duration_s), drains gracefully, and reports wire-level totals.
//
//   hosr_serve --snapshot=FILE [--data=DIR]
//              [--requests=FILE]           scripted stream: "user [k]" lines
//              [--num_requests=10000]      synthetic stream length
//              [--k=10]                    synthetic stream K
//              [--zipf=0.9]                user skew (0 = uniform)
//              [--qps=0]                   target replay rate (0 = max speed)
//              [--clients=0]               client threads (0 = hardware)
//              [--cache_capacity=65536]    0 disables the result cache
//              [--cache_shards=16]
//              [--seed=1] [--summary_out=FILE]
// network serving (docs/SERVING.md):
//              [--port=N]                  serve the wire protocol on
//                                          127.0.0.1:N (0 = ephemeral);
//                                          omit for in-process replay
//              [--port_file=FILE]          write the bound port (atomic)
//              [--bind_any]                bind 0.0.0.0 instead of loopback
//              [--workers=4]               connection-serving worker threads
//              [--max_pending_conns=64]    accept queue bound (shed above)
//              [--net_read_timeout_ms=30000]  slow-loris cutoff
//              [--serve_duration_s=0]      auto-stop after N seconds
// hot reload & overload control (docs/ROBUSTNESS.md); without --reload_watch
// or POST /reloadz on the admin port the startup snapshot serves the run:
//              [--reload_watch]            poll --snapshot for mtime/size
//                                          changes and reload automatically
//              [--reload_poll_ms=500]      watcher poll cadence
//              [--probe_users=8]           probe-query validation gate width
//              [--probe_k=10]
//              [--breaker]                 arm the request circuit breaker
//              [--breaker_window=256] [--breaker_min_samples=32]
//              [--breaker_trip_ratio=0.5] [--breaker_open_ms=250]
//              [--breaker_probes=8]
//              [--max_queue_delay_ms=0]    shed accepts when the smoothed
//                                          worker-claim wait exceeds this
// hardening flags (docs/ROBUSTNESS.md):
//              [--deadline_ms=0]           per-request budget; 0 disables
//              [--retries=2]               retry attempts after the first
//                                          (at most 14)
//              [--retry_backoff_ms=2]      base backoff (decorrelated jitter)
//              [--retry_backoff_max_ms=8]  backoff cap
//              [--degraded=1]              popularity fallback on failure;
//                                          0 lets engine faults surface
//              [--fault_spec=SPEC]         arm fault injection (e.g.
//                                          engine.score:p=0.2, net.read:n=7)
//              [--fault_seed=1]
// live observability (docs/OBSERVABILITY.md):
//              [--admin_port=N]            serve /metricsz /healthz /readyz
//                                          /varz /tracez /profilez
//                                          /timeseriez on 127.0.0.1:N
//                                          (0 = kernel-assigned ephemeral);
//                                          also starts the timeseries
//                                          recorder so /timeseriez has
//                                          windowed history
//              [--timeseries_interval=S]   recorder snapshot cadence (1.0)
//              [--admin_port_file=FILE]    write the bound port (atomic) so
//                                          scripts can find an ephemeral one
//              [--flight_dir=DIR]          arm the flight recorder; dumps
//                                          flight_*.json on injected faults
//                                          and deadline-exceeded bursts
//              [--admin_linger_s=0]        keep the admin endpoint up this
//                                          long after the replay finishes
// Every request resolves — never hangs — to one of five outcomes tallied in
// the JSON report: ok, degraded (popularity fallback), deadline_exceeded,
// shed, error. With --fault_spec the outcome of each request is a pure
// function of its stream index, so two same-seed runs report identical
// counts. Out-of-range sizes and counts (a negative --cache_capacity,
// --workers=0, ...) exit 1 with an error naming the flag.
// plus the standard observability flags (--metrics_out, --trace_out,
// --profile_out, --profile_hz, --timeseries_out, ... — see
// obs/reporter.h).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/io.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "net/server.h"
#include "net/stream.h"
#include "obs/admin_server.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/overload.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/fileio.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace hosr;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Integer flags that size a CHECKed constructor argument or are cast to
// size_t or int further down: out of range, they would abort the process or
// wrap (a cache of 2^64 entries), so they are refused before anything is
// built.
util::Status CheckFlagRanges(const util::Flags& flags) {
  constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
  struct Range {
    const char* flag;
    int64_t min;
    int64_t max;
  };
  static constexpr Range kRanges[] = {
      {"retries", 0, 14},  // HardenedExecutor takes 1 to 15 attempts
      {"cache_capacity", 0, kNoMax},
      {"cache_shards", 1, kNoMax},
      {"num_requests", 0, kNoMax},
      {"clients", 0, kNoMax},
      {"workers", 1, std::numeric_limits<int>::max()},
      {"max_pending_conns", 0, kNoMax},
      {"breaker_window", 1, kNoMax},
      {"breaker_min_samples", 1, kNoMax},
      {"breaker_probes", 1, kNoMax},
  };
  for (const Range& range : kRanges) {
    const int64_t value = flags.GetInt(range.flag, range.min);
    if (value < range.min || value > range.max) {
      return util::Status::InvalidArgument(util::StrFormat(
          "--%s=%lld must be %s %lld", range.flag,
          static_cast<long long>(value), value < range.min ? ">=" : "<=",
          static_cast<long long>(value < range.min ? range.min : range.max)));
    }
  }
  if (flags.GetDouble("breaker_trip_ratio", 0.5) <= 0.0) {
    return util::Status::InvalidArgument("--breaker_trip_ratio must be > 0");
  }
  return util::Status::Ok();
}

// SIGTERM/SIGINT flip this; the server loop polls it and drains.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::Parse(argc, argv);
  obs::InitFromFlags(flags);
  // Resolve kernel dispatch before any scoring so the level is fixed (and
  // logged) for the whole serving process.
  if (flags.GetBool("force_scalar", false)) setenv("HOSR_FORCE_SCALAR", "1", 1);
  HOSR_LOG(Info) << "kernels: dispatch level " << kernels::Active().name
                 << (kernels::ForcedScalar() ? " (forced scalar)" : "");
  if (auto status = CheckFlagRanges(flags); !status.ok()) return Fail(status);

  const std::string fault_spec = flags.GetString("fault_spec", "");
  if (!fault_spec.empty()) {
    auto status = fault::FaultRegistry::Global().Configure(
        fault_spec, static_cast<uint64_t>(flags.GetInt("fault_seed", 1)));
    if (!status.ok()) return Fail(status);
  }

  const std::string snapshot_path = flags.GetString("snapshot", "");
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "usage: hosr_serve --snapshot=FILE [flags]\n"
                         "  see the header of tools/hosr_serve.cpp\n");
    return 2;
  }
  auto snapshot = serve::LoadSnapshot(snapshot_path);
  if (!snapshot.ok()) return Fail(snapshot.status());
  const std::string model_name = snapshot->model_name;
  const uint32_t num_users = snapshot->num_users();
  const uint32_t num_items = snapshot->num_items();
  const uint32_t dim = snapshot->dim();

  // Seen-item filtering from the dataset's interactions, when provided.
  std::unique_ptr<data::Dataset> dataset;
  const std::string data_dir = flags.GetString("data", "");
  if (!data_dir.empty()) {
    auto loaded = data::LoadDataset(data_dir);
    if (!loaded.ok()) return Fail(loaded.status());
    if (loaded->num_users() != num_users ||
        loaded->num_items() != num_items) {
      return Fail(util::Status::InvalidArgument(util::StrFormat(
          "dataset %ux%u does not match snapshot %ux%u",
          loaded->num_users(), loaded->num_items(), num_users, num_items)));
    }
    dataset = std::make_unique<data::Dataset>(std::move(loaded).value());
  }

  const data::InteractionMatrix* seen =
      dataset != nullptr ? &dataset->interactions : nullptr;

  // Flight recorder: armed with a destination directory, it snapshots
  // metrics + recent spans to flight_*.json on injected faults, on
  // deadline-exceeded bursts, and on fatal signals.
  const std::string flight_dir = flags.GetString("flight_dir", "");
  if (!flight_dir.empty()) {
    // A dump without spans answers nothing — arming implies capture, so
    // post-mortems do not depend on also passing --trace_out.
    obs::SetEnabled(true);
    obs::FlightRecorder::Options flight_options;
    flight_options.dir = flight_dir;
    obs::FlightRecorder::Global().Arm(flight_options);
    obs::FlightRecorder::Global().InstallSignalHandlers();
    obs::FlightRecorder::Global().Note(util::StrFormat(
        "snapshot loaded: %s (model %s, %ux%u dim %u)",
        snapshot_path.c_str(), model_name.c_str(), num_users, num_items,
        dim));
  }

  // Live admin endpoint. Readiness flips true only after the engine answers
  // a real probe query, so /readyz == 200 means scoring actually works —
  // not just that the process is up.
  std::unique_ptr<obs::AdminServer> admin;
  const int admin_port = static_cast<int>(flags.GetInt("admin_port", -1));
  if (admin_port >= 0) {
    obs::SetEnabled(true);  // /tracez is only useful with capture on
    // /timeseriez needs windowed history whether or not --timeseries_out
    // was passed; skip if InitFromFlags already started the recorder.
    if (!obs::TimeseriesRecorder::Global().running()) {
      obs::TimeseriesRecorder::Options ts_options;
      ts_options.snapshot_interval_s =
          flags.GetDouble("timeseries_interval", 1.0);
      if (auto status = obs::TimeseriesRecorder::Global().Start(ts_options);
          !status.ok()) {
        HOSR_LOG(Warning) << "timeseries recorder: " << status;
      }
    }
    admin = std::make_unique<obs::AdminServer>(
        obs::AdminServer::Options{.port = admin_port});
    if (auto status = admin->Start(); !status.ok()) return Fail(status);
    admin->SetVar("binary", "hosr_serve");
    admin->SetVar("model", model_name);
    admin->SetVar("snapshot", snapshot_path);
    admin->SetVar("dispatch_level", kernels::Active().name);
    admin->SetVar("forced_scalar", kernels::ForcedScalar() ? "true" : "false");
    admin->SetVar("dims", util::StrFormat("%ux%u dim %u", num_users,
                                          num_items, dim));
    const std::string admin_port_file = flags.GetString("admin_port_file", "");
    if (!admin_port_file.empty()) {
      if (auto status = util::WriteFileAtomic(
              admin_port_file, util::StrFormat("%d\n", admin->port()));
          !status.ok()) {
        return Fail(status);
      }
    }
    // The readiness probe runs below, once the snapshot manager's initial
    // state exists.
  }

  // With faults armed, a request's outcome is a pure function of its stream
  // index only when every request actually executes; which requests hit the
  // shared cache depends on thread timing. Default the cache off under
  // injection so same-seed runs report identical outcome counts — an
  // explicit --cache_capacity restores it.
  const bool faults_armed = fault::FaultRegistry::Global().armed();
  auto cache_capacity =
      static_cast<size_t>(flags.GetInt("cache_capacity", 65536));
  if (faults_armed && !flags.Has("cache_capacity")) {
    if (cache_capacity > 0) {
      std::fprintf(stderr,
                   "note: fault injection armed, result cache disabled for "
                   "deterministic outcomes (pass --cache_capacity to force)\n");
    }
    cache_capacity = 0;
  }
  std::unique_ptr<serve::ResultCache> cache;
  if (cache_capacity > 0) {
    cache = std::make_unique<serve::ResultCache>(serve::ResultCache::Options{
        .capacity = cache_capacity,
        .num_shards =
            static_cast<size_t>(flags.GetInt("cache_shards", 16))});
  }

  // Hardening: deadline budget, bounded retries with jittered backoff, and
  // (unless --degraded=0) a popularity fallback so engine faults degrade
  // instead of failing.
  serve::HardenedOptions hardened;
  hardened.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  hardened.retry.max_attempts = 1 + static_cast<int>(flags.GetInt("retries", 2));
  hardened.retry.initial_backoff_ms = flags.GetDouble("retry_backoff_ms", 2.0);
  hardened.retry.max_backoff_ms =
      flags.GetDouble("retry_backoff_max_ms", 8.0);
  hardened.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  // The serving stack: every request, in either mode, runs through the
  // manager. Without --reload_watch or POST /reloadz it serves the startup
  // snapshot for the whole run.
  serve::SnapshotManager::Options manager_options;
  manager_options.path = snapshot_path;
  manager_options.seen = seen;
  manager_options.hardened = hardened;
  manager_options.degraded_fallback = flags.GetBool("degraded", true);
  manager_options.probe_users =
      static_cast<uint32_t>(flags.GetInt("probe_users", 8));
  manager_options.probe_k = static_cast<uint32_t>(flags.GetInt("probe_k", 10));
  manager_options.poll_interval_s =
      flags.GetDouble("reload_poll_ms", 500.0) / 1000.0;
  manager_options.cache = cache.get();
  auto created = serve::SnapshotManager::Create(std::move(manager_options),
                                                std::move(snapshot).value());
  if (!created.ok()) return Fail(created.status());
  const std::unique_ptr<serve::SnapshotManager> manager =
      std::move(created).value();
  if (flags.GetBool("reload_watch", false)) manager->StartWatcher();

  // Admin surfaces: readiness flips true only after the active engine
  // answers a real probe query, so /readyz == 200 means scoring actually
  // works; /varz mirrors the active snapshot version/path/load-time and
  // reload totals (refreshed from the reload listener after every attempt);
  // POST /reloadz triggers a synchronous validated swap.
  if (admin != nullptr) {
    auto probe = manager->Acquire()->engine().TryTopKForUser(
        0, 1, serve::kNoDeadline, serve::kNoFaultToken);
    if (probe.ok()) {
      obs::HealthTracker::Global().SetReady(true);
    } else {
      HOSR_LOG(Warning) << "readiness probe failed, /readyz stays 503: "
                        << probe.status();
    }
    obs::AdminServer* admin_ptr = admin.get();
    manager->SetReloadListener(
        [admin_ptr](const serve::SnapshotManager::Stats& stats) {
          admin_ptr->SetVar("snapshot_version",
                            util::StrFormat("%llu", static_cast<unsigned long long>(
                                                        stats.active_version)));
          admin_ptr->SetVar("snapshot_path", stats.active_path);
          admin_ptr->SetVar(
              "snapshot_load_unix_s",
              util::StrFormat("%lld", static_cast<long long>(
                                          stats.active_load_unix_s)));
          admin_ptr->SetVar("reloads_ok",
                            util::StrFormat("%llu", static_cast<unsigned long long>(
                                                        stats.reloads_ok)));
          admin_ptr->SetVar(
              "reloads_rejected",
              util::StrFormat("%llu", static_cast<unsigned long long>(
                                          stats.reloads_rejected)));
        });
    serve::SnapshotManager* manager_ptr = manager.get();
    admin->SetReloadHandler([manager_ptr]() {
      const util::Status status = manager_ptr->ReloadNow();
      obs::HttpResponse response;
      if (status.ok()) {
        const serve::SnapshotManager::Stats stats = manager_ptr->GetStats();
        response.status_code = 200;
        response.body = util::StrFormat(
            "{\"status\": \"ok\", \"active_version\": %llu, "
            "\"active_path\": \"%s\"}\n",
            static_cast<unsigned long long>(stats.active_version),
            obs::JsonEscapeString(stats.active_path).c_str());
      } else {
        response.status_code = 503;
        response.body = util::StrFormat(
            "{\"status\": \"rejected\", \"error\": \"%s\"}\n",
            obs::JsonEscapeString(status.ToString()).c_str());
      }
      return response;
    });
  }

  // ---- Server mode: speak the wire protocol until told to stop. --------
  if (flags.Has("port")) {
    std::unique_ptr<serve::CircuitBreaker> breaker;
    if (flags.GetBool("breaker", false)) {
      serve::CircuitBreaker::Options breaker_options;
      breaker_options.window =
          static_cast<size_t>(flags.GetInt("breaker_window", 256));
      breaker_options.min_samples =
          static_cast<size_t>(flags.GetInt("breaker_min_samples", 32));
      breaker_options.trip_ratio =
          flags.GetDouble("breaker_trip_ratio", 0.5);
      breaker_options.open_ms = flags.GetDouble("breaker_open_ms", 250.0);
      breaker_options.half_open_probes =
          static_cast<size_t>(flags.GetInt("breaker_probes", 8));
      breaker = std::make_unique<serve::CircuitBreaker>(breaker_options);
    }
    net::NetServer::Options server_options;
    server_options.port = static_cast<int>(flags.GetInt("port", 0));
    server_options.bind_any = flags.GetBool("bind_any", false);
    server_options.worker_threads =
        static_cast<int>(flags.GetInt("workers", 4));
    server_options.max_pending_conns =
        static_cast<size_t>(flags.GetInt("max_pending_conns", 64));
    server_options.read_timeout_ms =
        static_cast<int>(flags.GetInt("net_read_timeout_ms", 30000));
    server_options.manager = manager.get();
    server_options.breaker = breaker.get();
    server_options.max_queue_delay_ms =
        flags.GetDouble("max_queue_delay_ms", 0.0);
    net::NetServer server(server_options);
    if (auto status = server.Start(); !status.ok()) return Fail(status);
    const std::string port_file = flags.GetString("port_file", "");
    if (!port_file.empty()) {
      if (auto status = util::WriteFileAtomic(
              port_file, util::StrFormat("%d\n", server.port()));
          !status.ok()) {
        return Fail(status);
      }
    }
    std::signal(SIGTERM, HandleShutdownSignal);
    std::signal(SIGINT, HandleShutdownSignal);
    const double duration_s = flags.GetDouble("serve_duration_s", 0.0);
    const util::WallTimer serve_timer;
    while (g_shutdown_requested == 0) {
      if (duration_s > 0.0 && serve_timer.ElapsedSeconds() >= duration_s) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    HOSR_LOG(Info) << "draining: completing in-flight requests";
    server.Stop();  // graceful: answers everything already read
    manager->Stop();  // join the watcher
    const double elapsed = serve_timer.ElapsedSeconds();

    const net::NetServer::Stats stats = server.GetStats();
    serve::ResultCache::Stats cache_stats;
    if (cache != nullptr) cache_stats = cache->GetStats();
    const serve::SnapshotManager::Stats reload_stats = manager->GetStats();
    serve::CircuitBreaker::Stats breaker_stats;
    if (breaker != nullptr) breaker_stats = breaker->GetStats();
    const std::string summary = util::StrFormat(
        "{\"mode\": \"server\", \"snapshot\": \"%s\", \"model\": \"%s\", "
        "\"port\": %d, \"workers\": %d, \"elapsed_seconds\": %.4f, "
        "\"net\": {\"accepted\": %llu, \"shed\": %llu, "
        "\"delay_shed\": %llu, \"breaker_rejected\": %llu, "
        "\"requests\": %llu, "
        "\"responses\": %llu, \"protocol_errors\": %llu, "
        "\"read_timeouts\": %llu, \"bytes_read\": %llu, "
        "\"bytes_written\": %llu}, "
        "\"cache\": {\"enabled\": %s, \"hits\": %llu, \"misses\": %llu, "
        "\"stale_hits\": %llu, \"stale_puts\": %llu}, "
        "\"reload\": {\"enabled\": true, \"active_version\": %llu, "
        "\"reloads_ok\": %llu, \"reloads_rejected\": %llu}, "
        "\"breaker\": {\"enabled\": %s, \"state\": %d, \"trips\": %llu, "
        "\"rejected\": %llu}, "
        "\"faults_injected\": %llu}",
        snapshot_path.c_str(), model_name.c_str(), server.port(),
        server_options.worker_threads, elapsed,
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.delay_shed),
        static_cast<unsigned long long>(stats.breaker_rejected),
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.responses),
        static_cast<unsigned long long>(stats.protocol_errors),
        static_cast<unsigned long long>(stats.read_timeouts),
        static_cast<unsigned long long>(stats.bytes_read),
        static_cast<unsigned long long>(stats.bytes_written),
        cache != nullptr ? "true" : "false",
        static_cast<unsigned long long>(cache_stats.hits),
        static_cast<unsigned long long>(cache_stats.misses),
        static_cast<unsigned long long>(cache_stats.stale_hits),
        static_cast<unsigned long long>(cache_stats.stale_puts),
        static_cast<unsigned long long>(reload_stats.active_version),
        static_cast<unsigned long long>(reload_stats.reloads_ok),
        static_cast<unsigned long long>(reload_stats.reloads_rejected),
        breaker != nullptr ? "true" : "false",
        static_cast<int>(breaker_stats.state),
        static_cast<unsigned long long>(breaker_stats.trips),
        static_cast<unsigned long long>(breaker_stats.rejected),
        static_cast<unsigned long long>(
            fault::FaultRegistry::Global().TotalInjected()));
    std::printf("%s\n", summary.c_str());
    const std::string summary_out = flags.GetString("summary_out", "");
    if (!summary_out.empty()) {
      if (auto status = util::WriteFileAtomic(summary_out, summary + "\n");
          !status.ok()) {
        return Fail(status);
      }
    }
    if (admin != nullptr) admin->Stop();
    obs::FlushArtifacts();
    return 0;
  }

  // ---- Replay mode: in-process scripted or synthetic stream. -----------
  const auto default_k = static_cast<uint32_t>(flags.GetInt("k", 10));
  std::vector<net::StreamRequest> requests;
  const std::string requests_path = flags.GetString("requests", "");
  if (!requests_path.empty()) {
    auto loaded = net::LoadRequestScript(requests_path, num_users, default_k);
    if (!loaded.ok()) return Fail(loaded.status());
    requests = std::move(loaded).value();
  } else {
    requests = net::SyntheticStream(
        num_users, static_cast<size_t>(flags.GetInt("num_requests", 10000)),
        default_k, flags.GetDouble("zipf", 0.9),
        static_cast<uint64_t>(flags.GetInt("seed", 1)));
  }

  size_t clients = static_cast<size_t>(flags.GetInt("clients", 0));
  if (clients == 0) {
    clients = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  clients = std::min(clients, requests.size());
  const double qps_target = flags.GetDouble("qps", 0.0);

  // Replay: each client thread owns a contiguous slice of the stream and,
  // under --qps, paces itself to its share of the target rate. Every
  // request's fault token is its stream index, so injected outcomes are
  // independent of thread scheduling.
  std::vector<std::vector<int64_t>> latencies_ns(clients);
  std::vector<net::Outcomes> outcomes_per_client(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const util::WallTimer replay_timer;
  {
    HOSR_TRACE_SPAN("serve/replay");
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const size_t begin = c * requests.size() / clients;
        const size_t end = (c + 1) * requests.size() / clients;
        auto& recorded = latencies_ns[c];
        auto& tally = outcomes_per_client[c];
        recorded.reserve(end - begin);
        const double per_thread_period_s =
            qps_target > 0.0 ? static_cast<double>(clients) / qps_target
                             : 0.0;
        auto next_send = std::chrono::steady_clock::now();
        for (size_t i = begin; i < end; ++i) {
          if (per_thread_period_s > 0.0) {
            std::this_thread::sleep_until(next_send);
            next_send += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(per_thread_period_s));
          }
          const net::StreamRequest& r = requests[i];
          // One trace id per request (stream index + 1 so 0 stays "none"):
          // every span below tags with it, and latency-histogram exemplars
          // resolve back to it in /tracez.
          const obs::ScopedRequestContext request_scope(
              obs::RequestContext{static_cast<uint64_t>(i) + 1, r.user, r.k});
          const auto start = std::chrono::steady_clock::now();
          tally.Count(manager->Serve(r.user, r.k, /*token=*/i).response);
          recorded.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = replay_timer.ElapsedSeconds();

  net::Outcomes outcomes;
  for (const net::Outcomes& o : outcomes_per_client) outcomes += o;

  std::vector<int64_t> all_ns;
  all_ns.reserve(requests.size());
  for (const auto& per_client : latencies_ns) {
    all_ns.insert(all_ns.end(), per_client.begin(), per_client.end());
  }
  const net::LatencySummary latency = net::SummarizeLatencies(&all_ns);
  const double qps =
      elapsed > 0.0 ? static_cast<double>(all_ns.size()) / elapsed : 0.0;

  serve::ResultCache::Stats cache_stats;
  if (cache != nullptr) cache_stats = cache->GetStats();
  const double hit_rate = cache != nullptr ? cache->HitRate() : 0.0;

  HOSR_GAUGE("serve/replay_qps").Set(qps);
  HOSR_GAUGE("serve/replay_p50_us").Set(latency.p50_us);
  HOSR_GAUGE("serve/replay_p95_us").Set(latency.p95_us);
  HOSR_GAUGE("serve/replay_p99_us").Set(latency.p99_us);
  HOSR_GAUGE("serve/cache_hit_rate").Set(hit_rate);

  const uint64_t faults_injected =
      fault::FaultRegistry::Global().TotalInjected();
  const std::string summary = util::StrFormat(
      "{\"snapshot\": \"%s\", \"model\": \"%s\", \"num_users\": %u, "
      "\"num_items\": %u, \"dim\": %u, \"requests\": %zu, \"clients\": %zu, "
      "\"deadline_ms\": %.3f, \"elapsed_seconds\": %.4f, "
      "\"qps\": %.1f, "
      "\"latency_us\": {\"mean\": %.2f, \"p50\": %.2f, \"p95\": %.2f, "
      "\"p99\": %.2f}, \"cache\": {\"enabled\": %s, \"hits\": %llu, "
      "\"misses\": %llu, \"evictions\": %llu, \"hit_rate\": %.4f}, "
      "\"outcomes\": {\"ok\": %llu, \"degraded\": %llu, "
      "\"deadline_exceeded\": %llu, \"shed\": %llu, \"error\": %llu}, "
      "\"faults_injected\": %llu}",
      snapshot_path.c_str(), model_name.c_str(), num_users, num_items, dim,
      all_ns.size(), clients, hardened.deadline_ms, elapsed,
      qps, latency.mean_us, latency.p50_us, latency.p95_us, latency.p99_us,
      cache != nullptr ? "true" : "false",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.evictions), hit_rate,
      static_cast<unsigned long long>(outcomes.ok),
      static_cast<unsigned long long>(outcomes.degraded),
      static_cast<unsigned long long>(outcomes.deadline_exceeded),
      static_cast<unsigned long long>(outcomes.shed),
      static_cast<unsigned long long>(outcomes.error),
      static_cast<unsigned long long>(faults_injected));
  std::printf("%s\n", summary.c_str());

  const std::string summary_out = flags.GetString("summary_out", "");
  if (!summary_out.empty()) {
    if (auto status = util::WriteFileAtomic(summary_out, summary + "\n");
        !status.ok()) {
      return Fail(status);
    }
  }
  if (admin != nullptr) {
    // Optional grace period so scripts can probe the endpoints after the
    // replay finished (summary already printed above).
    const double linger_s = flags.GetDouble("admin_linger_s", 0.0);
    if (linger_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
    }
    admin->Stop();
  }
  obs::FlushArtifacts();
  return 0;
}
