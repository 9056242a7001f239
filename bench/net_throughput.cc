// Loopback throughput of the hosr::net serving front end
// (docs/SERVING.md "Network serving"): a NetServer serving a tiny frozen
// BprMf snapshot through a SnapshotManager (no result cache), hammered by
// persistent-connection clients replaying the standard zipf-skewed top-10
// stream, against the same stream driven straight through the manager's
// Serve() in process. Publishes wire QPS, exact latency percentiles, and
// the wire-overhead ratio as gauges:
//
//   bench/net_throughput/loopback_qps     queries/s over real TCP sockets
//   bench/net_throughput/p50_us           wire round-trip percentiles
//   bench/net_throughput/p95_us
//   bench/net_throughput/p99_us
//   bench/net_throughput/inproc_qps       same stream, no sockets
//   bench/net_throughput/overhead_ratio   inproc_qps / loopback_qps
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/net_throughput --metrics_out=bench_metrics/net_throughput.json
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "models/bpr_mf.h"
#include "net/client.h"
#include "net/server.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

using namespace hosr;

constexpr size_t kNumRequests = 4096;
constexpr uint32_t kNumUsers = 500;
constexpr uint32_t kNumItems = 2000;
constexpr uint32_t kTopK = 10;
constexpr int64_t kMinPhaseNanos = 500'000'000;

// Like hosr_serve's default on small boxes: match the machine, cap at 4.
size_t NumClients() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw));
}

// Replays `requests` over real sockets until the phase has run at least
// kMinPhaseNanos, recording per-query wire latencies. Returns QPS.
double LoopbackQps(int port, const std::vector<net::StreamRequest>& requests,
                   std::vector<int64_t>* latencies_ns) {
  const size_t clients = NumClients();
  std::vector<std::vector<int64_t>> recorded(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<uint64_t> completed{0};
  const int64_t begin_ns = obs::NowNanos();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::NetClient::Connect("127.0.0.1", port);
      HOSR_CHECK(client.ok()) << client.status();
      const size_t begin = c * requests.size() / clients;
      const size_t end = (c + 1) * requests.size() / clients;
      uint64_t done = 0;
      while (obs::NowNanos() - begin_ns < kMinPhaseNanos) {
        for (size_t i = begin; i < end; ++i) {
          const int64_t start = obs::NowNanos();
          auto result = client->Query(requests[i].user, requests[i].k,
                                      /*trace_id=*/i + 1);
          HOSR_CHECK(result.ok()) << result.status();
          recorded[c].push_back(obs::NowNanos() - start);
          ++done;
        }
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(obs::NowNanos() - begin_ns) / 1e9;
  for (auto& per_client : recorded) {
    latencies_ns->insert(latencies_ns->end(), per_client.begin(),
                         per_client.end());
  }
  return static_cast<double>(completed.load()) / elapsed_s;
}

// The same stream through the server's pipeline with no sockets — the
// numerator of the overhead ratio.
double InProcessQps(const serve::SnapshotManager& manager,
                    const std::vector<net::StreamRequest>& requests) {
  const size_t clients = NumClients();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<uint64_t> completed{0};
  const int64_t begin_ns = obs::NowNanos();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t begin = c * requests.size() / clients;
      const size_t end = (c + 1) * requests.size() / clients;
      uint64_t done = 0;
      while (obs::NowNanos() - begin_ns < kMinPhaseNanos) {
        for (size_t i = begin; i < end; ++i) {
          const serve::SnapshotManager::Served served =
              manager.Serve(requests[i].user, requests[i].k, /*token=*/i);
          HOSR_CHECK(served.response.ok());
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

  models::BprMf::Config config;
  config.embedding_dim = 10;
  models::BprMf model(kNumUsers, kNumItems, config);
  auto built = serve::BuildSnapshot(model);
  HOSR_CHECK(built.ok());
  // SnapshotManager serves from a file, so the model goes through a temp
  // artifact first.
  const std::string artifact =
      (std::filesystem::temp_directory_path() / "hosr_net_throughput_bench")
          .string();
  HOSR_CHECK(serve::SaveSnapshot(*built, artifact).ok());
  serve::SnapshotManager::Options manager_options;
  manager_options.path = artifact;
  auto manager = serve::SnapshotManager::Create(std::move(manager_options),
                                                std::move(built).value());
  HOSR_CHECK(manager.ok()) << manager.status();

  const auto requests =
      net::SyntheticStream(kNumUsers, kNumRequests, kTopK, /*zipf=*/0.9,
                           /*seed=*/17);

  net::NetServer::Options options;
  options.manager = manager->get();
  options.worker_threads = static_cast<int>(NumClients());
  net::NetServer server(options);
  HOSR_CHECK(server.Start().ok());

  // Warmup both paths, then measure.
  {
    std::vector<int64_t> scratch;
    (void)LoopbackQps(server.port(), requests, &scratch);
  }
  std::vector<int64_t> latencies_ns;
  const double loopback_qps =
      LoopbackQps(server.port(), requests, &latencies_ns);
  const net::LatencySummary latency =
      net::SummarizeLatencies(&latencies_ns);

  (void)InProcessQps(**manager, requests);  // warmup
  const double inproc_qps = InProcessQps(**manager, requests);
  const double ratio = loopback_qps > 0.0 ? inproc_qps / loopback_qps : 0.0;

  server.Stop();
  const net::NetServer::Stats stats = server.GetStats();
  HOSR_CHECK(stats.requests == stats.responses)
      << "drain dropped in-flight requests";
  std::error_code ec;
  std::filesystem::remove(artifact, ec);

  HOSR_GAUGE("bench/net_throughput/loopback_qps").Set(loopback_qps);
  HOSR_GAUGE("bench/net_throughput/p50_us").Set(latency.p50_us);
  HOSR_GAUGE("bench/net_throughput/p95_us").Set(latency.p95_us);
  HOSR_GAUGE("bench/net_throughput/p99_us").Set(latency.p99_us);
  HOSR_GAUGE("bench/net_throughput/inproc_qps").Set(inproc_qps);
  HOSR_GAUGE("bench/net_throughput/overhead_ratio").Set(ratio);

  std::printf(
      "net_throughput: loopback %.0f qps (p50 %.1fus p95 %.1fus p99 %.1fus), "
      "in-process %.0f qps, wire overhead %.2fx\n",
      loopback_qps, latency.p50_us, latency.p95_us, latency.p99_us,
      inproc_qps, ratio);

  obs::FlushArtifacts();
  return 0;
}
