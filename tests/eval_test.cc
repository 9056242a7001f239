#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/interactions.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "eval/significance.h"
#include "eval/topk.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace hosr::eval {
namespace {

// --- Metrics --------------------------------------------------------------------

TEST(MetricsTest, RecallCountsHits) {
  // relevant {1, 5, 9}; ranked hits 1 and 9.
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2, 9}, {1, 5, 9}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK({2, 3}, {1, 5, 9}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({1, 5, 9}, {1, 5, 9}), 1.0);
}

TEST(MetricsTest, RecallEmptyRelevantIsZero) {
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2}, {}), 0.0);
}

TEST(MetricsTest, PrecisionDividesByK) {
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 2, 9}, {1, 9}, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 2, 9}, {1, 9}, 10), 2.0 / 10.0);
}

TEST(MetricsTest, AveragePrecisionRanksMatter) {
  // Hit at positions 1 and 3: AP = (1/1 + 2/3) / 2.
  EXPECT_NEAR(AveragePrecisionAtK({7, 2, 9}, {7, 9}, 3),
              (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
  // Same hits later ranked -> lower AP.
  EXPECT_LT(AveragePrecisionAtK({2, 7, 9}, {7, 9}, 3),
            AveragePrecisionAtK({7, 9, 2}, {7, 9}, 3));
}

TEST(MetricsTest, AveragePrecisionPerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK({4, 8}, {4, 8}, 2), 1.0);
  // More relevant than K: normalize by K.
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK({4, 8}, {4, 8, 9, 10}, 2), 1.0);
}

TEST(MetricsTest, NdcgDiscountsLateHits) {
  const double early = NdcgAtK({5, 1, 2}, {5}, 3);
  const double late = NdcgAtK({1, 2, 5}, {5}, 3);
  EXPECT_DOUBLE_EQ(early, 1.0);
  EXPECT_GT(early, late);
  EXPECT_GT(late, 0.0);
}

// --- TopKAccumulator block fast-reject ------------------------------------------

TEST(TopKAccumulatorTest, FullOnlyAfterKCandidates) {
  TopKAccumulator acc(3);
  EXPECT_FALSE(acc.Full());
  acc.Consider(0.5f, 0);
  acc.Consider(0.8f, 1);
  EXPECT_FALSE(acc.Full());
  acc.Consider(0.2f, 2);
  EXPECT_TRUE(acc.Full());
}

TEST(TopKAccumulatorTest, WouldAcceptTracksCurrentWorst) {
  TopKAccumulator acc(2);
  // Room left: everything is acceptable.
  EXPECT_TRUE(acc.WouldAccept(-1e30f));
  acc.Consider(0.5f, 0);
  acc.Consider(0.8f, 1);
  // Worst held score is 0.5.
  EXPECT_FALSE(acc.WouldAccept(0.4f));
  EXPECT_TRUE(acc.WouldAccept(0.6f));
  // A tie must stay acceptable: an equal score at a lower index wins.
  EXPECT_TRUE(acc.WouldAccept(0.5f));
}

TEST(TopKAccumulatorTest, TieAtWorstScoreCanStillWinOnIndex) {
  TopKAccumulator acc(2);
  acc.Consider(0.5f, 7);
  acc.Consider(0.8f, 9);
  ASSERT_TRUE(acc.WouldAccept(0.5f));
  acc.Consider(0.5f, 3);  // same score, lower index: displaces index 7
  EXPECT_EQ(acc.Take(), (std::vector<uint32_t>{9, 3}));
}

// --- TopK -----------------------------------------------------------------------

TEST(TopKTest, MasksExcludedItems) {
  const float scores[] = {0.1f, 0.9f, 0.5f, 0.7f, 0.3f};
  const auto top = TopK(scores, 5, 3, /*excluded=*/{1, 3});
  EXPECT_EQ(top, (std::vector<uint32_t>{2, 4, 0}));
}

TEST(TopKTest, TieBreaksByIndex) {
  const float scores[] = {0.5f, 0.5f, 0.5f};
  const auto top = TopK(scores, 3, 2, {});
  EXPECT_EQ(top, (std::vector<uint32_t>{0, 1}));
}

TEST(TopKTest, BlockRejectScanMatchesBruteForce) {
  // More items than one 4096-item scan block, so the block-max fast-reject
  // path actually rejects blocks; results must equal a full sort.
  constexpr uint32_t kItems = 10000;
  util::Rng rng(29);
  std::vector<float> scores(kItems);
  for (auto& s : scores) s = rng.Gaussian();
  // Force cross-block ties so the >= reject rule is exercised.
  scores[9500] = scores[12] = scores[4100];
  const std::vector<uint32_t> excluded = {12, 4097, 9999};

  const auto got = TopK(scores.data(), kItems, 25, excluded);

  std::vector<uint32_t> order(kItems);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  std::vector<uint32_t> want;
  for (uint32_t idx : order) {
    if (std::find(excluded.begin(), excluded.end(), idx) != excluded.end()) {
      continue;
    }
    want.push_back(idx);
    if (want.size() == 25) break;
  }
  EXPECT_EQ(got, want);
}

// --- Evaluator ------------------------------------------------------------------

data::InteractionMatrix Interactions(
    uint32_t users, uint32_t items,
    std::vector<data::Interaction> list) {
  auto result =
      data::InteractionMatrix::FromInteractions(users, items, std::move(list));
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(EvaluatorTest, PerfectOracleScoresOne) {
  const auto train = Interactions(2, 6, {{0, 0}, {1, 1}});
  const auto test = Interactions(2, 6, {{0, 2}, {0, 3}, {1, 4}});
  Evaluator evaluator(&train, &test, /*k=*/3);
  // Oracle: test items get score 1, everything else 0.
  const auto result = evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    tensor::Matrix scores(users.size(), 6);
    for (size_t b = 0; b < users.size(); ++b) {
      for (const uint32_t item : test.ItemsOf(users[b])) {
        scores(b, item) = 1.0f;
      }
    }
    return scores;
  });
  EXPECT_EQ(result.num_users, 2u);
  EXPECT_DOUBLE_EQ(result.recall, 1.0);
  EXPECT_DOUBLE_EQ(result.map, 1.0);
  EXPECT_DOUBLE_EQ(result.ndcg, 1.0);
}

TEST(EvaluatorTest, TrainingItemsAreMasked) {
  // Train item 0 has the highest score but must never be recommended.
  const auto train = Interactions(1, 4, {{0, 0}});
  const auto test = Interactions(1, 4, {{0, 1}});
  Evaluator evaluator(&train, &test, /*k=*/1);
  const auto result = evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    tensor::Matrix scores(users.size(), 4);
    scores(0, 0) = 10.0f;  // train item: masked
    scores(0, 1) = 1.0f;   // test item: best remaining
    return scores;
  });
  EXPECT_DOUBLE_EQ(result.recall, 1.0);
}

TEST(EvaluatorTest, SkipsUsersWithoutTestItems) {
  const auto train = Interactions(3, 4, {{0, 0}, {1, 0}, {2, 0}});
  const auto test = Interactions(3, 4, {{1, 2}});
  Evaluator evaluator(&train, &test, 2);
  const auto result = evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    return tensor::Matrix(users.size(), 4);
  });
  EXPECT_EQ(result.num_users, 1u);
  EXPECT_EQ(result.users, (std::vector<uint32_t>{1}));
}

TEST(EvaluatorTest, PerUserVectorsAlignWithUsers) {
  const auto train = Interactions(2, 5, {{0, 0}, {1, 0}});
  const auto test = Interactions(2, 5, {{0, 1}, {1, 2}});
  Evaluator evaluator(&train, &test, 2);
  const auto result = evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    tensor::Matrix scores(users.size(), 5);
    for (size_t b = 0; b < users.size(); ++b) {
      if (users[b] == 0) scores(b, 1) = 1.0f;  // user 0 perfect
      // user 1 gets nothing relevant in top-2: items 3,4 higher
      if (users[b] == 1) {
        scores(b, 3) = 2.0f;
        scores(b, 4) = 1.5f;
      }
    }
    return scores;
  });
  ASSERT_EQ(result.per_user_recall.size(), 2u);
  EXPECT_DOUBLE_EQ(result.per_user_recall[0], 1.0);
  EXPECT_DOUBLE_EQ(result.per_user_recall[1], 0.0);
  EXPECT_DOUBLE_EQ(result.recall, 0.5);
}

TEST(EvaluatorTest, RandomScorerRecallNearExpectation) {
  // With 1 test item among 99 candidates and K=20 the expected recall of a
  // random scorer is ~20/99.
  const uint32_t n_items = 100;
  std::vector<data::Interaction> train_list, test_list;
  for (uint32_t u = 0; u < 200; ++u) {
    train_list.push_back({u, 0});
    test_list.push_back({u, 1 + u % (n_items - 1)});
  }
  const auto train = Interactions(200, n_items, train_list);
  const auto test = Interactions(200, n_items, test_list);
  Evaluator evaluator(&train, &test, 20);
  util::Rng rng(11);
  const auto result = evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    tensor::Matrix scores(users.size(), n_items);
    for (size_t i = 0; i < scores.size(); ++i) {
      scores.data()[i] = rng.UniformFloat();
    }
    return scores;
  });
  EXPECT_NEAR(result.recall, 20.0 / 99.0, 0.06);
}

// --- Sparsity groups ----------------------------------------------------------

TEST(SparsityGroupsTest, EqualTotalInteractionBinning) {
  // Users 0..9 with training counts 1..10 (total 55); 55/2 ~ 27.5 per group.
  std::vector<data::Interaction> train_list, test_list;
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t j = 0; j <= u; ++j) train_list.push_back({u, j});
    test_list.push_back({u, 50 + u});
  }
  const auto train = Interactions(10, 64, train_list);
  const auto test = Interactions(10, 64, test_list);
  const auto groups = BuildSparsityGroups(train, test, 2);
  ASSERT_EQ(groups.size(), 2u);
  // Group 0: counts 1..7 sum 28 >= 27.5.
  EXPECT_EQ(groups[0].users.size(), 7u);
  EXPECT_EQ(groups[1].users.size(), 3u);
  EXPECT_EQ(groups[0].max_interactions, 7u);
  EXPECT_EQ(groups[1].min_interactions, 8u);
}

TEST(SparsityGroupsTest, GroupsPartitionTestUsers) {
  std::vector<data::Interaction> train_list, test_list;
  util::Rng rng(12);
  for (uint32_t u = 0; u < 100; ++u) {
    const auto count = 1 + static_cast<uint32_t>(rng.UniformInt(30));
    for (uint32_t j = 0; j < count; ++j) train_list.push_back({u, j});
    if (u % 3 != 0) test_list.push_back({u, 40 + u % 20});
  }
  const auto train = Interactions(100, 64, train_list);
  const auto test = Interactions(100, 64, test_list);
  const auto groups = BuildSparsityGroups(train, test, 4);
  size_t total_users = 0;
  for (const auto& g : groups) total_users += g.users.size();
  size_t expected = 0;
  for (uint32_t u = 0; u < 100; ++u) {
    if (!test.ItemsOf(u).empty()) ++expected;
  }
  EXPECT_EQ(total_users, expected);
  // Groups ordered by increasing interaction count, non-overlapping ranges.
  for (size_t g = 1; g < groups.size(); ++g) {
    EXPECT_GT(groups[g].min_interactions, groups[g - 1].max_interactions);
  }
}

TEST(SparsityGroupsTest, LabelFormat) {
  SparsityGroup g;
  g.min_interactions = 0;
  g.max_interactions = 60;
  EXPECT_EQ(g.Label(), "<=60");
  g.min_interactions = 61;
  g.max_interactions = 120;
  EXPECT_EQ(g.Label(), "61-120");
}

// --- Significance ---------------------------------------------------------------

TEST(SignificanceTest, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Variance({1, 2, 3, 4}), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(Variance({5}), 0.0);
}

TEST(SignificanceTest, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-10);
  // I_x(2, 2) = 3x^2 - 2x^3.
  EXPECT_NEAR(RegularizedIncompleteBeta(2, 2, 0.4),
              3 * 0.16 - 2 * 0.064, 1e-10);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(3, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(3, 5, 1.0), 1.0);
}

TEST(SignificanceTest, StudentTKnownQuantiles) {
  // For df=10, |t|=2.228 has two-sided p ~ 0.05.
  EXPECT_NEAR(StudentTTwoSidedPValue(2.228, 10), 0.05, 0.002);
  // t = 0 -> p = 1.
  EXPECT_NEAR(StudentTTwoSidedPValue(0.0, 5), 1.0, 1e-9);
  // Symmetric in t.
  EXPECT_NEAR(StudentTTwoSidedPValue(-2.228, 10),
              StudentTTwoSidedPValue(2.228, 10), 1e-12);
  // Large df approaches the normal: |t|=1.96 -> ~0.05.
  EXPECT_NEAR(StudentTTwoSidedPValue(1.96, 100000), 0.05, 0.002);
}

TEST(SignificanceTest, PairedTTestDetectsConsistentShift) {
  util::Rng rng(13);
  std::vector<double> a(300), b(300);
  for (size_t i = 0; i < a.size(); ++i) {
    const double base = rng.Gaussian();
    b[i] = base;
    a[i] = base + 0.2 + 0.05 * rng.Gaussian();
  }
  const TTestResult result = PairedTTest(a, b);
  EXPECT_LT(result.p_value, 1e-6);
  EXPECT_GT(result.t_statistic, 0.0);
  EXPECT_NEAR(result.mean_difference, 0.2, 0.02);
}

TEST(SignificanceTest, PairedTTestNoDifference) {
  util::Rng rng(14);
  std::vector<double> a(200), b(200);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + 0.3 * rng.Gaussian();  // symmetric noise, no shift
  }
  const TTestResult result = PairedTTest(a, b);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(SignificanceTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(PairedTTest({}, {}).p_value, 1.0);
  EXPECT_DOUBLE_EQ(PairedTTest({1.0}, {2.0}).p_value, 1.0);
  // Identical samples: zero variance, zero mean diff -> p = 1.
  EXPECT_DOUBLE_EQ(PairedTTest({1, 2}, {1, 2}).p_value, 1.0);
  // Constant positive shift with zero variance -> p = 0.
  EXPECT_DOUBLE_EQ(PairedTTest({2, 3}, {1, 2}).p_value, 0.0);
}

}  // namespace
}  // namespace hosr::eval
