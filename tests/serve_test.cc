#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "core/hosr.h"
#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "eval/topk.h"
#include "models/bpr_mf.h"
#include "models/ncf.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "util/fileio.h"
#include "util/random.h"

namespace hosr::serve {
namespace {

// Small deterministic dataset shared by the serving tests.
const data::Dataset& TestDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "serve-test";
    config.num_users = 90;
    config.num_items = 120;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 6;
    config.seed = 17;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

std::unique_ptr<models::RankingModel> MakeTestModel(const std::string& name) {
  core::ZooConfig zoo;
  zoo.embedding_dim = 6;
  zoo.hosr_graph_dropout = 0.0f;
  auto model = core::MakeModel(name, TestDataset(), zoo);
  HOSR_CHECK(model.ok()) << model.status();
  return std::move(model).value();
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- eval::TopK helper -------------------------------------------------------

TEST(TopKTest, MatchesExhaustiveSortAndLegacyWrapper) {
  util::Rng rng(5);
  std::vector<float> scores(200);
  for (auto& s : scores) s = rng.Gaussian();
  scores[10] = scores[20];  // exercise tie-breaking
  const std::vector<uint32_t> excluded{3, 10, 150};

  // Exhaustive reference: stable sort by (score desc, index asc).
  std::vector<uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  std::vector<uint32_t> expected;
  for (const uint32_t j : order) {
    if (std::binary_search(excluded.begin(), excluded.end(), j)) continue;
    expected.push_back(j);
    if (expected.size() == 12) break;
  }

  const auto got = eval::TopK(scores.data(), 200, 12, excluded);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(eval::TopKExcluding(scores.data(), 200, 12, excluded), expected);
}

TEST(TopKTest, BlockedFeedingMatchesSinglePass) {
  util::Rng rng(6);
  std::vector<float> scores(500);
  for (auto& s : scores) s = rng.Gaussian();

  eval::TopKAccumulator blocked(7);
  for (uint32_t j0 = 0; j0 < 500; j0 += 64) {
    for (uint32_t j = j0; j < std::min<uint32_t>(500, j0 + 64); ++j) {
      blocked.Consider(scores[j], j);
    }
  }
  EXPECT_EQ(blocked.Take(), eval::TopK(scores.data(), 500, 7, {}));
}

TEST(TopKTest, KLargerThanCandidates) {
  const std::vector<float> scores{0.5f, 2.0f, -1.0f};
  const auto got = eval::TopK(scores.data(), 3, 10, {2});
  EXPECT_EQ(got, (std::vector<uint32_t>{1, 0}));
}

// --- snapshot round-trip -----------------------------------------------------

class SnapshotRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundTripTest, BitIdenticalScoresAndTopK) {
  auto model = MakeTestModel(GetParam());
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  const std::string path = TempPath("hosr_snapshot_" + GetParam() + ".bin");
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->model_name, model->name());
  ASSERT_EQ(loaded->num_users(), model->num_users());
  ASSERT_EQ(loaded->num_items(), model->num_items());

  const InferenceEngine engine(std::move(loaded).value(),
                               &TestDataset().interactions);
  std::vector<uint32_t> all_users(model->num_users());
  std::iota(all_users.begin(), all_users.end(), 0);
  const tensor::Matrix reference = model->ScoreAllItems(all_users);
  const std::vector<uint32_t> some_users = {0, 7, 33, 89};
  // Scoring only these users runs the model's tail on their rows alone.
  const tensor::Matrix some = model->ScoreAllItems(some_users);

  for (size_t b = 0; b < some_users.size(); ++b) {
    const uint32_t u = some_users[b];
    // Bit-identical scores: same accumulation order as tensor::Gemm.
    const auto served = engine.ScoreAll(u);
    for (uint32_t j = 0; j < model->num_items(); ++j) {
      ASSERT_EQ(served[j], reference.at(u, j)) << "user " << u << " item "
                                               << j;
      ASSERT_EQ(served[j], some.at(b, j)) << "user " << u << " item " << j;
    }
    // And therefore identical top-K lists to the offline evaluator path.
    const auto expected = eval::TopK(reference.row(u), model->num_items(), 10,
                                     TestDataset().interactions.ItemsOf(u));
    EXPECT_EQ(engine.TopKForUser(u, 10), expected);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, SnapshotRoundTripTest,
                         ::testing::Values("HOSR", "BPR", "TrustSVD",
                                           "IF-BPR+", "DeepInf"));

TEST(SnapshotTest, NonBilinearModelsRefuseExport) {
  auto model = MakeTestModel("NCF");
  const auto snapshot = BuildSnapshot(*model);
  EXPECT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kUnimplemented);
}

TEST(SnapshotTest, BiasesRoundTrip) {
  ModelSnapshot snapshot;
  snapshot.model_name = "biased";
  snapshot.factors.user_factors = tensor::Matrix(3, 2, 1.0f);
  snapshot.factors.item_factors = tensor::Matrix(4, 2, 0.5f);
  snapshot.factors.user_bias = {0.1f, 0.2f, 0.3f};
  snapshot.factors.item_bias = {1.0f, -1.0f, 0.0f, 2.0f};
  snapshot.factors.global_bias = 7.5f;

  const std::string path = TempPath("hosr_snapshot_bias.bin");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->factors.user_bias, snapshot.factors.user_bias);
  EXPECT_EQ(loaded->factors.item_bias, snapshot.factors.item_bias);
  EXPECT_EQ(loaded->factors.global_bias, 7.5f);
  EXPECT_EQ(loaded->Score(1, 3), 1.0f + 0.2f + 2.0f + 7.5f);

  // Item bias steers the ranking: item 3 beats the tie among equal dots.
  const InferenceEngine engine(std::move(loaded).value());
  EXPECT_EQ(engine.TopKForUser(1, 1), (std::vector<uint32_t>{3}));
  std::remove(path.c_str());
}

// --- corrupt / truncated snapshot files -------------------------------------

std::string WriteTestSnapshotFile() {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  HOSR_CHECK(snapshot.ok());
  const std::string path = TempPath("hosr_snapshot_corrupt.bin");
  HOSR_CHECK(SaveSnapshot(*snapshot, path).ok());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Snapshot files carry a whole-file CRC-32 footer, so any corruption —
// header, payload, or truncation — surfaces as DataLoss at the envelope
// before the format parser even runs (robustness_test sweeps single-bit
// flips across the whole file).

TEST(SnapshotTest, CorruptHeaderIsRejected) {
  const std::string path = WriteTestSnapshotFile();
  std::string bytes = ReadFile(path);
  bytes[0] ^= 0x5A;  // break the magic
  WriteFile(path, bytes);
  const auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ForeignEndianIsRejected) {
  const std::string path = WriteTestSnapshotFile();
  std::string bytes = ReadFile(path);
  std::swap(bytes[8], bytes[11]);  // byte-swap the endian marker
  std::swap(bytes[9], bytes[10]);
  WriteFile(path, bytes);
  const auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationIsRejectedAtEveryPrefix) {
  const std::string path = WriteTestSnapshotFile();
  const std::string bytes = ReadFile(path);
  // A sweep over prefix lengths covers truncation inside the header, the
  // name, each matrix block, and the CRC footer.
  for (size_t len : {0ul, 3ul, 9ul, 17ul, 20ul, 25ul, 40ul,
                     bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    WriteFile(path, bytes.substr(0, len));
    const auto loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
        << loaded.status();
  }
  // Trailing garbage after a valid snapshot breaks the CRC position.
  WriteFile(path, bytes.substr(0, 30) + bytes);
  EXPECT_FALSE(LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

// The format parser's own guards still hold when a corrupted body carries
// a valid CRC (e.g. a malicious or rewrapped file).
TEST(SnapshotTest, ValidCrcOverCorruptBodyIsStillRejected) {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  std::ostringstream body;
  ASSERT_TRUE(WriteSnapshot(*snapshot, &body).ok());
  std::string bytes = body.str();
  bytes[0] ^= 0x5A;  // break the inner magic, then re-wrap with a fresh CRC
  const std::string path = TempPath("hosr_snapshot_rewrapped.bin");
  ASSERT_TRUE(util::WriteFileAtomicWithCrc(path, bytes).ok());
  const auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- engine ------------------------------------------------------------------

TEST(EngineTest, SeenItemsAreFiltered) {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const auto& train = TestDataset().interactions;
  const InferenceEngine engine(std::move(snapshot).value(), &train);
  for (uint32_t u = 0; u < engine.num_users(); ++u) {
    const auto ranked = engine.TopKForUser(u, 20);
    for (const uint32_t item : ranked) {
      EXPECT_FALSE(train.Contains(u, item)) << "user " << u;
    }
  }
}

TEST(EngineTest, TinyItemBlocksMatchDefault) {
  auto model = MakeTestModel("BPR");
  auto reference_snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(reference_snapshot.ok());
  auto blocked_snapshot = *reference_snapshot;

  const InferenceEngine reference(std::move(reference_snapshot).value(),
                                  &TestDataset().interactions);
  EngineOptions tiny;
  tiny.item_block = 3;  // force many partial blocks
  const InferenceEngine blocked(std::move(blocked_snapshot),
                                &TestDataset().interactions, tiny);
  for (const uint32_t u : {0u, 11u, 42u}) {
    EXPECT_EQ(blocked.TopKForUser(u, 15), reference.TopKForUser(u, 15));
  }
}

TEST(EngineTest, BatchMatchesSingleQueries) {
  auto model = MakeTestModel("HOSR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const InferenceEngine engine(std::move(snapshot).value(),
                               &TestDataset().interactions);
  std::vector<uint32_t> users{4, 4, 19, 60, 88, 0};
  const auto batched = engine.TopKBatch(users, 10);
  ASSERT_EQ(batched.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batched[i], engine.TopKForUser(users[i], 10));
  }
}

// Pins the satellite requirement: the evaluator and the serving engine rank
// through the same eval::TopK selection and agree exactly.
TEST(EngineTest, AgreesWithEvaluatorRanking) {
  auto model = MakeTestModel("HOSR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const auto& train = TestDataset().interactions;
  const InferenceEngine engine(std::move(snapshot).value(), &train);

  std::vector<uint32_t> users(model->num_users());
  std::iota(users.begin(), users.end(), 0);
  const tensor::Matrix scores = model->ScoreAllItems(users);
  for (const uint32_t u : users) {
    EXPECT_EQ(engine.TopKForUser(u, 10),
              eval::TopK(scores.row(u), model->num_items(), 10,
                         train.ItemsOf(u)));
  }
}

// --- cache -------------------------------------------------------------------

TEST(CacheTest, HitMissAndEviction) {
  ResultCache::Options options;
  options.capacity = 4;
  options.num_shards = 1;
  ResultCache cache(options);

  EXPECT_FALSE(cache.Get(1, 10).has_value());
  cache.Put(1, 10, {5, 6});
  auto hit = cache.Get(1, 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<uint32_t>{5, 6}));
  // Same user, different K is a distinct entry.
  EXPECT_FALSE(cache.Get(1, 20).has_value());

  for (uint32_t u = 2; u <= 5; ++u) cache.Put(u, 10, {u});
  // Capacity 4: inserting users 2..5 evicted the oldest entry (user 1).
  EXPECT_FALSE(cache.Get(1, 10).has_value());
  EXPECT_TRUE(cache.Get(5, 10).has_value());

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_NEAR(cache.HitRate(), 2.0 / 5.0, 1e-9);

  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(CacheTest, LruRefreshOnGet) {
  ResultCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;
  ResultCache cache(options);
  cache.Put(1, 10, {1});
  cache.Put(2, 10, {2});
  ASSERT_TRUE(cache.Get(1, 10).has_value());  // 1 becomes most recent
  cache.Put(3, 10, {3});                      // evicts 2, not 1
  EXPECT_TRUE(cache.Get(1, 10).has_value());
  EXPECT_FALSE(cache.Get(2, 10).has_value());
}

TEST(CacheTest, ConcurrentMixedLoad) {
  ResultCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint32_t i = 0; i < 2000; ++i) {
        const uint32_t user = (i * 7 + static_cast<uint32_t>(t)) % 64;
        if (auto hit = cache.Get(user, 10)) {
          ASSERT_EQ(hit->size(), 1u);
          ASSERT_EQ((*hit)[0], user);
        } else {
          cache.Put(user, 10, {user});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 2000u);
  EXPECT_GT(stats.hits, 0u);
}

// --- batcher -----------------------------------------------------------------

TEST(BatcherTest, ConcurrentSubmissionsMatchDirectQueries) {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const InferenceEngine engine(std::move(snapshot).value(),
                               &TestDataset().interactions);
  ResultCache cache;
  RequestBatcher::Options options;
  options.max_batch_size = 8;
  options.cache = &cache;
  RequestBatcher batcher(&engine, options);

  constexpr int kThreads = 4;
  constexpr uint32_t kPerThread = 100;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      util::Rng rng(static_cast<uint64_t>(t) + 1);
      for (uint32_t i = 0; i < kPerThread; ++i) {
        const auto user =
            static_cast<uint32_t>(rng.UniformInt(engine.num_users()));
        auto result = batcher.Submit(user, 10).get();
        ASSERT_TRUE(result.ok()) << result.status();
        ASSERT_FALSE(result->degraded);
        ASSERT_EQ(result->items, engine.TopKForUser(user, 10));
      }
    });
  }
  for (auto& t : clients) t.join();
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPerThread);
}

TEST(BatcherTest, InvalidRequestsFailFast) {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const InferenceEngine engine(std::move(snapshot).value());
  RequestBatcher batcher(&engine);

  auto bad_user = batcher.Submit(engine.num_users() + 5, 10).get();
  ASSERT_FALSE(bad_user.ok());
  EXPECT_EQ(bad_user.status().code(), util::StatusCode::kOutOfRange);

  auto bad_k = batcher.Submit(0, 0).get();
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(BatcherTest, SubmitAfterStopFails) {
  auto model = MakeTestModel("BPR");
  auto snapshot = BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const InferenceEngine engine(std::move(snapshot).value());
  RequestBatcher batcher(&engine);
  ASSERT_TRUE(batcher.Submit(0, 5).get().ok());
  batcher.Stop();
  const auto result = batcher.Submit(0, 5).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace hosr::serve
