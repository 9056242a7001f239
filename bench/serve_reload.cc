// Measures the serving-path cost of hot-reload readiness
// (docs/ROBUSTNESS.md "Hot reload & overload control"): replays a
// zipf-skewed single-user top-10 stream in interleaved off/on pairs —
// an engine + executor called directly, without Acquire(), vs the
// SnapshotManager::Serve() request path with the manager's mtime watcher
// polling, where every request pays the RCU Acquire() (one atomic
// shared_ptr load) before executing — and publishes the median QPS of each
// side plus their ratio as gauges. The acceptance bar is parity: the
// manager-armed replay must stay within a few percent of the direct
// executor (<5% QPS overhead).
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/serve_reload --metrics_out=bench_metrics/serve_reload.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace hosr;

constexpr size_t kNumRequests = 4096;
constexpr double kZipf = 0.9;

size_t NumClients() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw));
}

uint32_t SampleUser(util::Rng* rng, uint32_t num_users, double s) {
  const double n = static_cast<double>(num_users);
  const double u = rng->UniformDouble();
  const double x = std::pow((std::pow(n, 1.0 - s) - 1.0) * u + 1.0,
                            1.0 / (1.0 - s));
  return std::min(static_cast<uint32_t>(x - 1.0), num_users - 1);
}

// Replays the 4k stream across NumClients() threads, looping until the
// phase has run for at least kMinPhaseNanos. `acquire` is the per-request
// entry point under test: the static side calls the executor directly, the
// reload side calls SnapshotManager::Serve() exactly as net::NetServer
// does.
constexpr int64_t kMinPhaseNanos = 500'000'000;

template <typename AcquireFn>
double ReplayQps(const std::vector<uint32_t>& requests, AcquireFn acquire) {
  const size_t clients = NumClients();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<uint64_t> completed{0};
  const int64_t begin_ns = obs::NowNanos();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, clients, c] {
      const size_t begin = c * requests.size() / clients;
      const size_t end = (c + 1) * requests.size() / clients;
      uint64_t done = 0;
      while (obs::NowNanos() - begin_ns < kMinPhaseNanos) {
        for (size_t i = begin; i < end; ++i) {
          const obs::ScopedRequestContext request_scope(
              obs::RequestContext{static_cast<uint64_t>(i) + 1, requests[i],
                                  10});
          auto response = acquire(requests[i], i);
          HOSR_CHECK(response.ok());
          ++done;
        }
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(obs::NowNanos() - begin_ns) / 1e9;
  return static_cast<double>(completed.load()) / elapsed_s;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InitFromFlags(util::Flags::Parse(argc, argv));
  obs::SetEnabled(true);

  auto generated =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(0.05));
  HOSR_CHECK(generated.ok());
  const data::Dataset dataset = std::move(generated).value();
  models::BprMf::Config config;
  config.embedding_dim = 10;
  models::BprMf model(dataset.num_users(), dataset.num_items(), config);
  auto built = serve::BuildSnapshot(model);
  HOSR_CHECK(built.ok());
  const serve::ModelSnapshot snapshot = std::move(built).value();

  // Static side: an engine + executor pinned for the process lifetime and
  // called without Acquire() — the serving cost with hot swap taken out.
  const serve::InferenceEngine engine(snapshot, &dataset.interactions);
  const serve::HardenedExecutor executor(&engine, serve::HardenedOptions{});

  // Reload side: the same snapshot behind a SnapshotManager with its
  // watcher thread polling at the hosr_serve default cadence the whole
  // time — the steady-state cost of being hot-swappable, not of swapping.
  const std::string artifact =
      (std::filesystem::temp_directory_path() / "hosr_serve_reload_bench")
          .string();
  HOSR_CHECK(serve::SaveSnapshot(snapshot, artifact).ok());
  serve::SnapshotManager::Options manager_options;
  manager_options.path = artifact;
  manager_options.seen = &dataset.interactions;
  manager_options.poll_interval_s = 0.5;
  auto manager =
      serve::SnapshotManager::Create(std::move(manager_options), snapshot);
  HOSR_CHECK(manager.ok());
  (*manager)->StartWatcher();

  util::Rng rng(17);
  std::vector<uint32_t> requests(kNumRequests);
  for (auto& user : requests) {
    user = SampleUser(&rng, engine.num_users(), kZipf);
  }

  const auto static_replay = [&] {
    return ReplayQps(requests, [&](uint32_t user, size_t i) {
      return executor.Execute(user, 10, /*token=*/i);
    });
  };
  const auto reload_replay = [&] {
    return ReplayQps(requests, [&](uint32_t user, size_t i) {
      return (*manager)->Serve(user, 10, /*token=*/i).response;
    });
  };

  // Warmup both sides once.
  (void)static_replay();
  (void)reload_replay();

  // Interleaved pairs + median cancel runner drift; the within-pair order
  // flips every pair (ABBA) so monotonic drift biases neither side.
  constexpr int kPairs = 5;
  std::vector<double> static_samples, reload_samples;
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      static_samples.push_back(static_replay());
      reload_samples.push_back(reload_replay());
    } else {
      reload_samples.push_back(reload_replay());
      static_samples.push_back(static_replay());
    }
  }
  (*manager)->Stop();
  std::error_code ec;
  std::filesystem::remove(artifact, ec);

  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double qps_static = median(static_samples);
  const double qps_reload = median(reload_samples);
  const double penalty = qps_static / qps_reload;
  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/serve_reload/replay_top10_qps_static")
      ->Set(qps_static);
  registry.GetGauge("bench/serve_reload/replay_top10_qps_manager")
      ->Set(qps_reload);
  registry.GetGauge("bench/serve_reload/reload_overhead_penalty")
      ->Set(penalty);
  std::printf(
      "static: %.0f QPS | manager-armed: %.0f QPS (%.1f%% overhead, median "
      "of %d ABBA pairs)\n",
      qps_static, qps_reload, (penalty - 1.0) * 100.0, kPairs);
  return 0;
}
