#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include "core/hosr.h"
#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "eval/topk.h"
#include "kernels/kernels.h"
#include "models/bpr_mf.h"
#include "models/ncf.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/hardened.h"
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

TEST(TopKTest, MatchesExhaustiveSort) {
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
  const HardenedExecutor executor(&engine, HardenedOptions{});
  std::vector<uint32_t> all_users(model->num_users());
  std::iota(all_users.begin(), all_users.end(), 0);
  const tensor::Matrix reference = model->ScoreAllItems(all_users);
  const std::vector<uint32_t> some_users = {0, 7, 33, 89};
  // Scoring only these users runs the model's tail on their rows alone.
  const tensor::Matrix some = model->ScoreAllItems(some_users);

  // The served answer with k = every item: all unseen items, ranked as the
  // offline evaluator ranks them, each with its ScoreAllItems score bit
  // for bit.
  const uint32_t m = model->num_items();
  const auto expect_served = [&](uint32_t u, const float* expected_scores) {
    const auto response = executor.Execute(u, m, /*token=*/u);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->degraded);
    EXPECT_EQ(response->items,
              eval::TopK(expected_scores, m, m,
                         TestDataset().interactions.ItemsOf(u)))
        << "user " << u;
    ASSERT_EQ(response->scores.size(), response->items.size());
    for (size_t i = 0; i < response->items.size(); ++i) {
      const uint32_t j = response->items[i];
      ASSERT_EQ(std::bit_cast<uint32_t>(response->scores[i]),
                std::bit_cast<uint32_t>(expected_scores[j]))
          << "user " << u << " item " << j;
    }
  };
  for (const uint32_t u : all_users) expect_served(u, reference.row(u));
  for (size_t b = 0; b < some_users.size(); ++b) {
    expect_served(some_users[b], some.row(b));
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
  std::string bytes;
  util::ByteWriter body(&bytes);
  ASSERT_TRUE(WriteSnapshot(*snapshot, &body).ok());
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

// --- the engine's exact half-precision filter --------------------------------

// Tables built to break the engine's half-precision filter if its bounds
// were not exact.
enum class FilterTable {
  kDuplicateRows,    // exact ties, in fp32 and in half precision
  kSharedHalfImage,  // rows with one half image and different fp32 values
  kRoundingFlips,    // pairs whose half images rank opposite to fp32
  kHalfRange,        // entries beyond +-65504 and below 2^-24
  kNormSpread,       // row norms from 1e-3 to 1e3
  kItemBias,         // item, user and global biases
  kSeenTop,          // each user has seen their true top items
};

constexpr FilterTable kFilterTables[] = {
    FilterTable::kDuplicateRows, FilterTable::kSharedHalfImage,
    FilterTable::kRoundingFlips, FilterTable::kHalfRange,
    FilterTable::kNormSpread,    FilterTable::kItemBias,
    FilterTable::kSeenTop,
};

// The scores a full fp32 scan ranks: dot(u, v_j) + item_bias[j] through
// the active dot kernel.
std::vector<float> FullScan(const ModelSnapshot& snapshot, uint32_t user) {
  const auto& f = snapshot.factors;
  std::vector<float> scores(snapshot.num_items());
  for (uint32_t j = 0; j < snapshot.num_items(); ++j) {
    scores[j] = kernels::Active().dot(snapshot.dim(), f.user_factors.row(user),
                                      f.item_factors.row(j));
    if (!f.item_bias.empty()) scores[j] += f.item_bias[j];
  }
  return scores;
}

ModelSnapshot MakeFilterTable(FilterTable table, uint32_t num_users,
                              uint32_t num_items, uint32_t dim,
                              util::Rng* rng) {
  ModelSnapshot snapshot;
  snapshot.model_name = "filter-test";
  auto& f = snapshot.factors;
  f.user_factors = tensor::Matrix(num_users, dim);
  f.item_factors = tensor::Matrix(num_items, dim);
  for (uint32_t u = 0; u < num_users; ++u) {
    for (uint32_t i = 0; i < dim; ++i) {
      // kRoundingFlips needs every user entry positive.
      f.user_factors.at(u, i) = table == FilterTable::kRoundingFlips
                                    ? 1.0f + rng->UniformFloat()
                                    : rng->Gaussian();
    }
  }
  for (uint32_t j = 0; j < num_items; ++j) {
    float* v = f.item_factors.row(j);
    for (uint32_t i = 0; i < dim; ++i) v[i] = rng->Gaussian();
    switch (table) {
      case FilterTable::kDuplicateRows:
        if (j >= 7 && j % 2 == 1) {
          std::copy_n(f.item_factors.row(j % 7), dim, v);
        }
        break;
      case FilterTable::kSharedHalfImage:
        // Row j % 5's half-exact values, each moved by less than a quarter
        // of a half ulp: the half image stays, the fp32 scores differ.
        for (uint32_t i = 0; i < dim; ++i) {
          const float base = kernels::HalfToFloat(
              kernels::FloatToHalf(f.item_factors.at(j % 5, i)));
          const float step = static_cast<float>(rng->UniformInt(129)) - 64.0f;
          v[i] = j < 5 ? base : base * (1.0f + step * 0x1p-20f);
          EXPECT_EQ(kernels::FloatToHalf(v[i]), kernels::FloatToHalf(base));
        }
        break;
      case FilterTable::kRoundingFlips: {
        // Pair p: a half-exact base row w in [1, 2) (half ulp 2^-10). Row
        // 2p is w + 0.49 ulp everywhere, so its half image is w; row 2p+1
        // is w except w_0 + 0.51 ulp, whose image is w_0 + 1 ulp. Row 2p+1
        // has the larger approximate score and, for any positive user over
        // more than one dimension, the smaller fp32 score.
        if (j % 2 == 1) {
          const float* pair = f.item_factors.row(j - 1);
          for (uint32_t i = 0; i < dim; ++i) {
            v[i] = kernels::HalfToFloat(kernels::FloatToHalf(pair[i]));
          }
          v[0] += 0.51f * 0x1p-10f;
          break;
        }
        for (uint32_t i = 0; i < dim; ++i) {
          const float w =
              1.0f + static_cast<float>(rng->UniformInt(1024)) * 0x1p-10f;
          v[i] = w + 0.49f * 0x1p-10f;
        }
        break;
      }
      case FilterTable::kHalfRange:
        if (j % 3 == 0) {
          v[j % dim] = (j % 2 == 0 ? 1.0f : -1.0f) *
                       (65504.0f + static_cast<float>(rng->UniformInt(40000)));
        } else if (j % 3 == 1) {
          for (uint32_t i = 0; i < dim; ++i) v[i] *= 1e-8f;
        }
        break;
      case FilterTable::kNormSpread: {
        const float scale = std::pow(10.0f, 6.0f * rng->UniformFloat() - 3.0f);
        for (uint32_t i = 0; i < dim; ++i) v[i] *= scale;
        break;
      }
      case FilterTable::kItemBias:
      case FilterTable::kSeenTop:
        break;
    }
  }
  if (table == FilterTable::kItemBias) {
    for (uint32_t j = 0; j < num_items; ++j) {
      f.item_bias.push_back(3.0f * rng->Gaussian());
    }
    for (uint32_t u = 0; u < num_users; ++u) {
      f.user_bias.push_back(rng->Gaussian());
    }
    f.global_bias = 0.25f;
  }
  return snapshot;
}

// Each user has seen a random tenth of the items; under kSeenTop also their
// three best items by the full scan.
data::InteractionMatrix MakeFilterSeen(FilterTable table,
                                       const ModelSnapshot& snapshot,
                                       util::Rng* rng) {
  std::vector<data::Interaction> seen;
  for (uint32_t u = 0; u < snapshot.num_users(); ++u) {
    for (uint32_t j = 0; j < snapshot.num_items(); ++j) {
      if (rng->UniformInt(10) == 0) seen.push_back({u, j});
    }
    if (table == FilterTable::kSeenTop) {
      const std::vector<float> scores = FullScan(snapshot, u);
      for (const uint32_t j :
           eval::TopK(scores.data(), snapshot.num_items(), 3, {})) {
        seen.push_back({u, j});
      }
    }
  }
  auto matrix = data::InteractionMatrix::FromInteractions(
      snapshot.num_users(), snapshot.num_items(), std::move(seen));
  HOSR_CHECK(matrix.ok()) << matrix.status();
  return std::move(matrix).value();
}

// The engine's answer is the full scan's: items, order and ties for every
// k around the unseen-item count, and the executor's scores are
// ModelSnapshot::Score bit for bit. serve_test_forced_scalar reruns this
// under the scalar kernels.
TEST(EngineFilterTest, MatchesFullScanOnAdversarialTables) {
  util::Rng rng(2024);
  for (const FilterTable table : kFilterTables) {
    for (const uint32_t dim : {13u, 64u}) {
      const ModelSnapshot snapshot =
          MakeFilterTable(table, /*num_users=*/12, /*num_items=*/203, dim,
                          &rng);
      const data::InteractionMatrix seen =
          MakeFilterSeen(table, snapshot, &rng);
      for (const uint32_t item_block : {2048u, 13u}) {
        EngineOptions options;
        options.item_block = item_block;
        const InferenceEngine engine(snapshot, &seen, options);
        const HardenedExecutor executor(&engine, HardenedOptions{});
        for (uint32_t u = 0; u < snapshot.num_users(); ++u) {
          const std::vector<float> scores = FullScan(snapshot, u);
          const auto unseen =
              static_cast<uint32_t>(snapshot.num_items() -
                                    seen.ItemsOf(u).size());
          for (const uint32_t k :
               {1u, 5u, 20u, unseen - 1, unseen, unseen + 3}) {
            const std::vector<uint32_t> expected = eval::TopK(
                scores.data(), snapshot.num_items(), k, seen.ItemsOf(u));
            ASSERT_EQ(engine.TopKForUser(u, k), expected)
                << "table " << static_cast<int>(table) << " dim " << dim
                << " block " << item_block << " user " << u << " k " << k;
            auto served = executor.Execute(u, k, /*token=*/u);
            ASSERT_TRUE(served.ok()) << served.status();
            ASSERT_EQ(served->items, expected);
            ASSERT_EQ(served->scores.size(), expected.size());
            for (size_t i = 0; i < expected.size(); ++i) {
              ASSERT_EQ(served->scores[i], snapshot.Score(u, expected[i]));
            }
          }
        }
      }
    }
  }
}

// When |u| * max|v_j| could overflow a float, no bound is trusted: every
// unseen item is rescored, and the answer is still the full scan's.
TEST(EngineFilterTest, OverflowRiskRescoresEveryItem) {
  util::Rng rng(7);
  ModelSnapshot snapshot = MakeFilterTable(FilterTable::kItemBias,
                                           /*num_users=*/4,
                                           /*num_items=*/40, /*dim=*/8, &rng);
  auto& f = snapshot.factors;
  for (uint32_t u = 0; u < 4; ++u) f.user_factors.at(u, 0) = 1e20f;
  // Orthogonal to the large user entry, so every score stays finite.
  std::fill_n(f.item_factors.row(7), 8, 0.0f);
  f.item_factors.at(7, 1) = 1e19f;
  const InferenceEngine engine(snapshot);
  obs::Counter& candidates =
      *obs::Registry::Global().GetCounter("serve/engine_candidates");
  for (uint32_t u = 0; u < 4; ++u) {
    const std::vector<float> scores = FullScan(snapshot, u);
    const uint64_t before = candidates.Get();
    EXPECT_EQ(engine.TopKForUser(u, 5), eval::TopK(scores.data(), 40, 5, {}));
    EXPECT_EQ(candidates.Get() - before, 40u) << "user " << u;
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
}

TEST(CacheTest, ScoresRoundTripAndStaleGenerationDropsBoth) {
  ResultCache cache;
  cache.Advance(3);
  cache.Put(7, 2, {4, 9}, /*generation=*/3, {1.5f, -0.25f});
  std::vector<float> scores;
  auto hit = cache.Get(7, 2, /*generation=*/3, &scores);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<uint32_t>{4, 9}));
  EXPECT_EQ(scores, (std::vector<float>{1.5f, -0.25f}));
  // The items-only forms still work: no scores stored, none asked for.
  cache.Put(8, 2, {1}, /*generation=*/3);
  EXPECT_EQ(cache.Get(8, 2, /*generation=*/3, &scores),
            std::vector<uint32_t>{1});
  EXPECT_TRUE(scores.empty());
  EXPECT_TRUE(cache.Get(7, 2, /*generation=*/3).has_value());

  // A swap: the old entry misses (and is evicted) with its scores, and a
  // Put computed under the old generation stores neither.
  cache.Advance(4);
  scores = {42.0f};
  EXPECT_FALSE(cache.Get(7, 2, /*generation=*/4, &scores).has_value());
  EXPECT_EQ(scores, std::vector<float>{42.0f});  // untouched on a miss
  cache.Put(7, 2, {4, 9}, /*generation=*/3, {1.5f, -0.25f});
  EXPECT_FALSE(cache.Get(7, 2, /*generation=*/4, &scores).has_value());
  EXPECT_EQ(cache.GetStats().stale_puts, 1u);
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

}  // namespace
}  // namespace hosr::serve
