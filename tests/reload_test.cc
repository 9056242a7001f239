#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "models/bpr_mf.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "obs/flight.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/overload.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace hosr::serve {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("hosr_reload_" + name))
      .string();
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Two distinct-but-shape-compatible artifacts: same 40x60x6 universe,
// different factor values, so a swap is observable in every ranking.
ModelSnapshot MakeSnapshot(uint64_t seed) {
  models::BprMf::Config config;
  config.embedding_dim = 6;
  config.seed = seed;
  models::BprMf model(/*num_users=*/40, /*num_items=*/60, config);
  auto snapshot = BuildSnapshot(model);
  HOSR_CHECK(snapshot.ok());
  return std::move(snapshot).value();
}

void SaveTo(const std::string& path, uint64_t seed) {
  ASSERT_TRUE(SaveSnapshot(MakeSnapshot(seed), path).ok());
}

// --- cache generations -------------------------------------------------------

TEST(ResultCacheGenerationTest, StaleEntryEvictedOnGet) {
  ResultCache cache;
  cache.Advance(1);
  cache.Put(7, 10, {1, 2, 3}, /*generation=*/1);
  ASSERT_TRUE(cache.Get(7, 10, /*generation=*/1).has_value());

  cache.Advance(2);
  EXPECT_FALSE(cache.Get(7, 10, /*generation=*/2).has_value());
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.entries, 0u);  // evicted, not just skipped
  // The stale lookup is a miss, and a second lookup stays a (clean) miss.
  EXPECT_FALSE(cache.Get(7, 10, /*generation=*/2).has_value());
  EXPECT_EQ(cache.GetStats().stale_hits, 1u);
}

TEST(ResultCacheGenerationTest, LaggingPutIsDropped) {
  ResultCache cache;
  cache.Advance(1);
  cache.Advance(2);
  // A request that ranked under generation 1 but reached Put after the
  // swap must not poison the cache with pre-swap results.
  cache.Put(3, 10, {9, 8, 7}, /*generation=*/1);
  EXPECT_FALSE(cache.Get(3, 10, /*generation=*/2).has_value());
  EXPECT_EQ(cache.GetStats().stale_puts, 1u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheGenerationTest, UngenerationedCallersStillRoundTrip) {
  ResultCache cache;  // generation stays 0: pre-reload callers unchanged
  cache.Put(1, 5, {4, 2});
  auto hit = cache.Get(1, 5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<uint32_t>{4, 2}));
}

// --- circuit breaker ---------------------------------------------------------

CircuitBreaker::Options SmallBreaker(double open_ms) {
  CircuitBreaker::Options options;
  options.window = 16;
  options.min_samples = 8;
  options.trip_ratio = 0.5;
  options.open_ms = open_ms;
  options.half_open_probes = 2;
  return options;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  CircuitBreaker breaker(SmallBreaker(/*open_ms=*/60000.0));
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(breaker.Admit());
    breaker.ReportOutcome(/*failed=*/true);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, TripsOnWindowedFailureRatio) {
  CircuitBreaker breaker(SmallBreaker(/*open_ms=*/60000.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(breaker.Admit());
    breaker.ReportOutcome(/*failed=*/true);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Admit());
  EXPECT_FALSE(breaker.Admit());
  const CircuitBreaker::Stats stats = breaker.GetStats();
  EXPECT_EQ(stats.trips, 1u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_GE(stats.failure_ratio, 0.5);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseAndClearTheWindow) {
  CircuitBreaker breaker(SmallBreaker(/*open_ms=*/0.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(breaker.Admit());
    breaker.ReportOutcome(/*failed=*/true);
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // Zero cooldown: the next Admit() starts half-open probing.
  ASSERT_TRUE(breaker.Admit());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.ReportOutcome(/*failed=*/false);
  ASSERT_TRUE(breaker.Admit());
  breaker.ReportOutcome(/*failed=*/false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Closing forgets the storm — the old failures cannot instantly re-trip.
  EXPECT_EQ(breaker.GetStats().samples, 0u);
  EXPECT_TRUE(breaker.Admit());
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  CircuitBreaker breaker(SmallBreaker(/*open_ms=*/0.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(breaker.Admit());
    breaker.ReportOutcome(/*failed=*/true);
  }
  ASSERT_TRUE(breaker.Admit());  // half-open probe
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.ReportOutcome(/*failed=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.GetStats().trips, 2u);
}

TEST(QueueDelayEwmaTest, RecordSmoothsAndDecayHalves) {
  QueueDelayEwma ewma(/*alpha=*/0.5);
  EXPECT_EQ(ewma.value_ms(), 0.0);
  ewma.Record(10.0);
  EXPECT_DOUBLE_EQ(ewma.value_ms(), 10.0);  // first sample seeds the EWMA
  ewma.Record(20.0);
  EXPECT_DOUBLE_EQ(ewma.value_ms(), 15.0);
  ewma.Decay();
  EXPECT_DOUBLE_EQ(ewma.value_ms(), 7.5);
}

// --- SnapshotManager ---------------------------------------------------------

class SnapshotManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Disarm();
    obs::HealthTracker::Global().ResetForTesting();
    obs::FlightRecorder::Global().ResetForTesting();
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    SaveTo(path_, /*seed=*/11);
  }

  void TearDown() override {
    fault::FaultRegistry::Global().Disarm();
    obs::HealthTracker::Global().ResetForTesting();
    obs::FlightRecorder::Global().ResetForTesting();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  SnapshotManager::Options BaseOptions() {
    SnapshotManager::Options options;
    options.path = path_;
    options.poll_interval_s = 0.0;  // watcher off unless a test wants it
    return options;
  }

  std::string path_;
};

TEST_F(SnapshotManagerTest, CreateLoadsValidatesAndServes) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  const std::shared_ptr<const ServingState> state = (*manager)->Acquire();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->version(), 1u);
  EXPECT_EQ(state->path(), path_);
  EXPECT_GT(state->load_unix_s(), 0);

  const InferenceEngine oracle(MakeSnapshot(11));
  EXPECT_EQ(state->engine().TopKForUser(0, 10), oracle.TopKForUser(0, 10));

  const SnapshotManager::Stats stats = (*manager)->GetStats();
  EXPECT_EQ(stats.active_version, 1u);
  EXPECT_EQ(stats.reloads_ok, 0u);
  EXPECT_EQ(stats.reloads_rejected, 0u);
}

TEST_F(SnapshotManagerTest, CreateRejectsEmptyPath) {
  SnapshotManager::Options options;
  EXPECT_EQ(SnapshotManager::Create(options).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotManagerTest, ReloadSwapsWhileOldStateStaysValid) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  const std::shared_ptr<const ServingState> old_state = (*manager)->Acquire();

  SaveTo(path_, /*seed=*/22);
  ASSERT_TRUE((*manager)->ReloadNow().ok());

  const std::shared_ptr<const ServingState> new_state = (*manager)->Acquire();
  EXPECT_EQ(new_state->version(), 2u);
  EXPECT_EQ((*manager)->GetStats().reloads_ok, 1u);

  // RCU guarantee: a request that acquired the old state mid-swap keeps a
  // fully working pipeline, answering from the old artifact.
  const InferenceEngine oracle_a(MakeSnapshot(11));
  const InferenceEngine oracle_b(MakeSnapshot(22));
  EXPECT_EQ(old_state->engine().TopKForUser(5, 10),
            oracle_a.TopKForUser(5, 10));
  EXPECT_EQ(new_state->engine().TopKForUser(5, 10),
            oracle_b.TopKForUser(5, 10));
}

TEST_F(SnapshotManagerTest, CorruptCandidateRejectedWithRollback) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  const std::string good = ReadRaw(path_);

  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  WriteRaw(path_, corrupt);

  const util::Status rejected = (*manager)->ReloadNow();
  EXPECT_FALSE(rejected.ok());
  const SnapshotManager::Stats after = (*manager)->GetStats();
  EXPECT_EQ(after.active_version, 1u);  // rollback: v1 keeps serving
  EXPECT_EQ(after.reloads_rejected, 1u);
  EXPECT_EQ(after.reject_streak, 1u);
  EXPECT_FALSE((*manager)->Acquire()->engine().TopKForUser(0, 10).empty());

  // The repaired artifact clears the streak.
  WriteRaw(path_, good);
  EXPECT_TRUE((*manager)->ReloadNow().ok());
  const SnapshotManager::Stats recovered = (*manager)->GetStats();
  EXPECT_EQ(recovered.active_version, 2u);
  EXPECT_EQ(recovered.reject_streak, 0u);
}

TEST_F(SnapshotManagerTest, UniverseShapeChangeRejected) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();

  models::BprMf::Config config;
  config.embedding_dim = 6;
  models::BprMf grown(/*num_users=*/41, /*num_items=*/60, config);
  auto candidate = BuildSnapshot(grown);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(SaveSnapshot(*candidate, path_).ok());

  const util::Status rejected = (*manager)->ReloadNow();
  EXPECT_EQ(rejected.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*manager)->Acquire()->version(), 1u);
}

TEST_F(SnapshotManagerTest, NonFiniteScoresRejectedByProbeGate) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();

  // NaN factors survive the CRC (the file is internally consistent); only
  // the probe-query gate can catch semantic poison like this.
  ModelSnapshot poisoned = MakeSnapshot(22);
  float* row = poisoned.factors.user_factors.row(0);
  for (uint32_t d = 0; d < poisoned.dim(); ++d) {
    row[d] = std::numeric_limits<float>::quiet_NaN();
  }
  ASSERT_TRUE(SaveSnapshot(poisoned, path_).ok());

  const util::Status rejected = (*manager)->ReloadNow();
  EXPECT_EQ(rejected.code(), util::StatusCode::kDataLoss);
  EXPECT_EQ((*manager)->Acquire()->version(), 1u);
}

TEST_F(SnapshotManagerTest, LoadAndValidateFaultPointsReject) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  SaveTo(path_, /*seed=*/22);

  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("snapshot.load:p=1:code=io_error", /*seed=*/3)
                  .ok());
  EXPECT_EQ((*manager)->ReloadNow().code(), util::StatusCode::kIoError);
  EXPECT_EQ((*manager)->Acquire()->version(), 1u);

  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("reload.validate:p=1", /*seed=*/3)
                  .ok());
  EXPECT_EQ((*manager)->ReloadNow().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ((*manager)->Acquire()->version(), 1u);
  EXPECT_EQ((*manager)->GetStats().reloads_rejected, 2u);

  fault::FaultRegistry::Global().Disarm();
  EXPECT_TRUE((*manager)->ReloadNow().ok());
  EXPECT_EQ((*manager)->Acquire()->version(), 2u);
}

TEST_F(SnapshotManagerTest, RejectStreakDegradesHealthUntilRecovery) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_TRUE(obs::HealthTracker::Global().healthy());

  const std::string good = ReadRaw(path_);
  WriteRaw(path_, good.substr(0, good.size() / 2));  // truncated candidate

  EXPECT_FALSE((*manager)->ReloadNow().ok());
  EXPECT_TRUE(obs::HealthTracker::Global().healthy());  // one strike
  EXPECT_FALSE((*manager)->ReloadNow().ok());
  EXPECT_FALSE(obs::HealthTracker::Global().healthy());  // streak of two
  EXPECT_EQ(obs::HealthTracker::Global().reload_reject_streak(), 2u);

  WriteRaw(path_, good);
  EXPECT_TRUE((*manager)->ReloadNow().ok());
  EXPECT_TRUE(obs::HealthTracker::Global().healthy());
}

TEST_F(SnapshotManagerTest, RejectedReloadDumpsFlightRecorder) {
  const std::string dump_dir = TempPath("flight_dumps");
  std::filesystem::create_directories(dump_dir);
  obs::FlightRecorder::Options flight;
  flight.dir = dump_dir;
  flight.min_interval_seconds = 0.0;
  obs::FlightRecorder::Global().Arm(flight);

  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  WriteRaw(path_, "not a snapshot");
  ASSERT_FALSE((*manager)->ReloadNow().ok());

  EXPECT_GE(obs::FlightRecorder::Global().dump_count(), 1u);
  const std::string dump = obs::FlightRecorder::Global().last_dump_path();
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(std::filesystem::exists(dump));
  EXPECT_NE(ReadRaw(dump).find("reload rejected"), std::string::npos);

  std::error_code ec;
  std::filesystem::remove_all(dump_dir, ec);
}

TEST_F(SnapshotManagerTest, SwapAdvancesCacheGeneration) {
  ResultCache cache;
  SnapshotManager::Options options = BaseOptions();
  options.cache = &cache;
  auto manager = SnapshotManager::Create(std::move(options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_EQ(cache.generation(), 1u);

  cache.Put(2, 10, {1, 2, 3}, cache.generation());
  SaveTo(path_, /*seed=*/22);
  ASSERT_TRUE((*manager)->ReloadNow().ok());
  EXPECT_EQ(cache.generation(), 2u);
  EXPECT_FALSE(cache.Get(2, 10, cache.generation()).has_value());
}

// --- SnapshotManager::Serve, the one request path ---------------------------

TEST_F(SnapshotManagerTest, ServeAnswersSecondIdenticalRequestFromCache) {
  ResultCache cache;
  SnapshotManager::Options options = BaseOptions();
  options.cache = &cache;
  auto manager = SnapshotManager::Create(std::move(options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  const InferenceEngine oracle(MakeSnapshot(11));

  const SnapshotManager::Served first = (*manager)->Serve(4, 10, /*token=*/1);
  ASSERT_TRUE(first.response.ok()) << first.response.status();
  EXPECT_FALSE(first.from_cache);
  EXPECT_FALSE(first.response->degraded);
  EXPECT_EQ(first.response->items, oracle.TopKForUser(4, 10));
  EXPECT_EQ(first.state->version(), 1u);

  const SnapshotManager::Served second = (*manager)->Serve(4, 10, /*token=*/2);
  ASSERT_TRUE(second.response.ok()) << second.response.status();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.state, first.state);
  EXPECT_EQ(second.response->items, first.response->items);
  EXPECT_EQ(cache.GetStats().hits, 1u);
  EXPECT_EQ(cache.GetStats().misses, 1u);
  // The entry was written under the serving state's version.
  EXPECT_TRUE(cache.Get(4, 10, first.state->version()).has_value());
}

TEST_F(SnapshotManagerTest, ServeAfterReloadMissesAndAnswersFromNewSnapshot) {
  ResultCache cache;
  SnapshotManager::Options options = BaseOptions();
  options.cache = &cache;
  auto manager = SnapshotManager::Create(std::move(options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  const InferenceEngine oracle_b(MakeSnapshot(22));
  ASSERT_TRUE((*manager)->Serve(4, 10, /*token=*/1).response.ok());

  SaveTo(path_, /*seed=*/22);
  ASSERT_TRUE((*manager)->ReloadNow().ok());
  const SnapshotManager::Served after = (*manager)->Serve(4, 10, /*token=*/2);
  ASSERT_TRUE(after.response.ok()) << after.response.status();
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.state->version(), 2u);
  EXPECT_EQ(after.response->items, oracle_b.TopKForUser(4, 10));

  const SnapshotManager::Served again = (*manager)->Serve(4, 10, /*token=*/3);
  ASSERT_TRUE(again.response.ok()) << again.response.status();
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.response->items, oracle_b.TopKForUser(4, 10));
}

TEST_F(SnapshotManagerTest, ServeNeverCachesADegradedAnswer) {
  ResultCache cache;
  SnapshotManager::Options options = BaseOptions();
  options.cache = &cache;
  options.hardened.retry.max_attempts = 1;  // the fault degrades at once
  auto manager = SnapshotManager::Create(std::move(options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  const InferenceEngine oracle(MakeSnapshot(11));

  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1", /*seed=*/1)
                  .ok());
  const SnapshotManager::Served faulted = (*manager)->Serve(4, 10, 1);
  ASSERT_TRUE(faulted.response.ok()) << faulted.response.status();
  EXPECT_TRUE(faulted.response->degraded);
  EXPECT_FALSE(faulted.from_cache);
  EXPECT_EQ(cache.GetStats().entries, 0u);

  fault::FaultRegistry::Global().Disarm();
  const SnapshotManager::Served healthy = (*manager)->Serve(4, 10, 2);
  ASSERT_TRUE(healthy.response.ok()) << healthy.response.status();
  EXPECT_FALSE(healthy.from_cache);
  EXPECT_FALSE(healthy.response->degraded);
  EXPECT_EQ(healthy.response->items, oracle.TopKForUser(4, 10));
}

TEST_F(SnapshotManagerTest, ListenerSeesEverySwapAndReject) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  std::vector<uint64_t> versions;
  std::vector<uint64_t> rejects;
  (*manager)->SetReloadListener([&](const SnapshotManager::Stats& stats) {
    versions.push_back(stats.active_version);
    rejects.push_back(stats.reloads_rejected);
  });
  ASSERT_EQ(versions.size(), 1u);  // installed listener fires immediately

  SaveTo(path_, /*seed=*/22);
  ASSERT_TRUE((*manager)->ReloadNow().ok());
  WriteRaw(path_, "garbage");
  ASSERT_FALSE((*manager)->ReloadNow().ok());
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[1], 2u);
  EXPECT_EQ(versions[2], 2u);  // reject leaves the version alone
  EXPECT_EQ(rejects[2], 1u);
}

TEST_F(SnapshotManagerTest, WatcherPicksUpAtomicallyReplacedFile) {
  SnapshotManager::Options options = BaseOptions();
  options.poll_interval_s = 0.02;
  auto manager = SnapshotManager::Create(std::move(options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  (*manager)->StartWatcher();

  // Publish the way a deploy job would: write a sibling, then rename —
  // the watcher must never observe a half-written artifact.
  const std::string staging = path_ + ".staging";
  ASSERT_TRUE(SaveSnapshot(MakeSnapshot(22), staging).ok());
  std::filesystem::rename(staging, path_);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*manager)->Acquire()->version() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ((*manager)->Acquire()->version(), 2u);
  const InferenceEngine oracle_b(MakeSnapshot(22));
  EXPECT_EQ((*manager)->Acquire()->engine().TopKForUser(3, 10),
            oracle_b.TopKForUser(3, 10));
  (*manager)->Stop();
}

// The satellite-4 correctness property: under concurrent swapping, every
// reply is bit-identical to the ranking of exactly one of the two engines,
// and every issued request gets an answer.
TEST_F(SnapshotManagerTest, ConcurrentSwapsServeOnlyWholeSnapshots) {
  auto manager = SnapshotManager::Create(BaseOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  SnapshotManager* mgr = manager->get();

  const InferenceEngine oracle_a(MakeSnapshot(11));
  const InferenceEngine oracle_b(MakeSnapshot(22));
  constexpr uint32_t kK = 10;
  std::vector<std::vector<uint32_t>> expected_a;
  std::vector<std::vector<uint32_t>> expected_b;
  for (uint32_t user = 0; user < oracle_a.num_users(); ++user) {
    expected_a.push_back(oracle_a.TopKForUser(user, kK));
    expected_b.push_back(oracle_b.TopKForUser(user, kK));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> matched_a{0};
  std::atomic<uint64_t> matched_b{0};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint32_t user = static_cast<uint32_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        requests.fetch_add(1, std::memory_order_relaxed);
        const std::shared_ptr<const ServingState> state = mgr->Acquire();
        const std::vector<uint32_t> got =
            state->engine().TopKForUser(user, kK);
        responses.fetch_add(1, std::memory_order_relaxed);
        if (got == expected_a[user]) {
          matched_a.fetch_add(1, std::memory_order_relaxed);
        } else if (got == expected_b[user]) {
          matched_b.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        user = (user + 7) % oracle_a.num_users();
      }
    });
  }

  // Six full swap cycles A -> B -> A ... while the readers hammer away.
  for (int cycle = 0; cycle < 6; ++cycle) {
    SaveTo(path_, cycle % 2 == 0 ? 22 : 11);
    ASSERT_TRUE(mgr->ReloadNow().ok()) << "cycle " << cycle;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(requests.load(), responses.load());
  EXPECT_EQ(torn.load(), 0u) << "a reply mixed two snapshot generations";
  EXPECT_GT(matched_a.load(), 0u);
  EXPECT_GT(matched_b.load(), 0u);
  EXPECT_EQ(mgr->Acquire()->version(), 7u);
}

// --- NetServer integration ---------------------------------------------------

class ReloadServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Disarm();
    obs::HealthTracker::Global().ResetForTesting();
    path_ = TempPath(std::string("srv_") + ::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name());
    SaveTo(path_, /*seed=*/11);
  }

  void TearDown() override {
    fault::FaultRegistry::Global().Disarm();
    obs::HealthTracker::Global().ResetForTesting();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::string path_;
};

TEST_F(ReloadServerTest, HotSwapUnderLiveTrafficDropsNothing) {
  ResultCache cache;
  SnapshotManager::Options manager_options;
  manager_options.path = path_;
  manager_options.poll_interval_s = 0.0;
  manager_options.cache = &cache;
  auto manager = SnapshotManager::Create(std::move(manager_options));
  ASSERT_TRUE(manager.ok()) << manager.status();

  net::NetServer::Options options;
  options.manager = manager->get();
  options.worker_threads = 2;
  net::NetServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  const InferenceEngine oracle_a(MakeSnapshot(11));
  const InferenceEngine oracle_b(MakeSnapshot(22));

  auto before = client->Query(3, 10);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->items, oracle_a.TopKForUser(3, 10));
  auto cached = client->Query(3, 10);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->served_from_cache);

  SaveTo(path_, /*seed=*/22);
  ASSERT_TRUE((*manager)->ReloadNow().ok());

  // Same connection, same user: the swap must be visible immediately and
  // the pre-swap cache entry must not leak through.
  auto after = client->Query(3, 10);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->served_from_cache);
  EXPECT_EQ(after->items, oracle_b.TopKForUser(3, 10));
  for (size_t i = 0; i < after->items.size(); ++i) {
    EXPECT_EQ(after->scores[i], oracle_b.snapshot().Score(3, after->items[i]));
  }

  server.Stop();
  const net::NetServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_GE(cache.GetStats().stale_hits, 1u);
}

TEST_F(ReloadServerTest, BreakerShedsAtTheWireAndRecovers) {
  SnapshotManager::Options manager_options;
  manager_options.path = path_;
  manager_options.poll_interval_s = 0.0;
  // Every failure surfaces immediately: one attempt, no fallback.
  manager_options.hardened.retry.max_attempts = 1;
  manager_options.degraded_fallback = false;
  auto manager = SnapshotManager::Create(std::move(manager_options));
  ASSERT_TRUE(manager.ok()) << manager.status();

  CircuitBreaker::Options breaker_options;
  breaker_options.window = 8;
  breaker_options.min_samples = 4;
  breaker_options.trip_ratio = 0.5;
  breaker_options.open_ms = 60000.0;  // stays open for the whole test
  CircuitBreaker breaker(breaker_options);

  net::NetServer::Options options;
  options.manager = manager->get();
  options.breaker = &breaker;
  options.worker_threads = 1;
  net::NetServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  // With no degraded fallback an armed engine.score fault is a hard error
  // per request; four of them trip the breaker.
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1", /*seed=*/5)
                  .ok());
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(client->Query(i, 10).ok());
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Shed replies are application errors on a healthy connection: the
  // engine is never touched and the message names the breaker.
  fault::FaultRegistry::Global().Disarm();
  auto shed = client->Query(5, 10);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().ToString().find("circuit breaker"),
            std::string::npos);

  server.Stop();
  const net::NetServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.breaker_rejected, 1u);
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST_F(ReloadServerTest, AdminReloadzTriggersAndReportsRejects) {
  SnapshotManager::Options manager_options;
  manager_options.path = path_;
  manager_options.poll_interval_s = 0.0;
  auto manager = SnapshotManager::Create(std::move(manager_options));
  ASSERT_TRUE(manager.ok()) << manager.status();
  SnapshotManager* mgr = manager->get();

  obs::AdminServer admin(obs::AdminServer::Options{.port = 0});
  admin.SetReloadHandler([mgr]() {
    obs::HttpResponse response;
    const util::Status status = mgr->ReloadNow();
    response.status_code = status.ok() ? 200 : 503;
    response.body = status.ok() ? "ok" : status.ToString();
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());

  SaveTo(path_, /*seed=*/22);
  auto swapped = obs::AdminHttpPost(admin.port(), "/reloadz");
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->status_code, 200);
  EXPECT_EQ(mgr->Acquire()->version(), 2u);

  WriteRaw(path_, "definitely not a snapshot");
  auto rejected = obs::AdminHttpPost(admin.port(), "/reloadz");
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status_code, 503);
  EXPECT_EQ(mgr->Acquire()->version(), 2u);

  // Wrong verb and unknown POST paths answer cleanly.
  auto get = obs::AdminHttpGet(admin.port(), "/reloadz");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status_code, 405);
  auto unknown = obs::AdminHttpPost(admin.port(), "/nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status_code, 404);

  admin.Stop();
}

TEST_F(ReloadServerTest, AdminPostWithoutHandlerIs404) {
  obs::AdminServer admin(obs::AdminServer::Options{.port = 0});
  ASSERT_TRUE(admin.Start().ok());
  auto response = obs::AdminHttpPost(admin.port(), "/reloadz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 404);
  admin.Stop();
}

}  // namespace
}  // namespace hosr::serve
