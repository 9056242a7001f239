#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/hosr.h"
#include "core/model_zoo.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/significance.h"
#include "graph/stats.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"

namespace hosr {
namespace {

// End-to-end pipeline tests crossing every module boundary: generate ->
// split -> train -> evaluate -> compare, exactly as the benches do.

struct Pipeline {
  data::Dataset dataset;
  data::Split split;
};

Pipeline MakePipeline(uint64_t seed) {
  data::SyntheticConfig config;
  config.name = "integration";
  config.num_users = 250;
  config.num_items = 300;
  config.avg_interactions_per_user = 14;
  config.avg_relations_per_user = 8;
  config.social_blend = 0.5f;
  config.seed = seed;
  auto dataset = data::GenerateSynthetic(config);
  HOSR_CHECK(dataset.ok());
  util::Rng rng(seed ^ 1);
  auto split = data::SplitDataset(*dataset, 0.2, &rng);
  HOSR_CHECK(split.ok());
  return {std::move(dataset).value(), std::move(split).value()};
}

double TrainAndEvaluate(models::RankingModel* model,
                        const data::Split& split, uint32_t epochs,
                        std::vector<double>* per_user_recall = nullptr) {
  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 128;
  config.learning_rate = 0.003f;
  config.weight_decay = 1e-5f;
  config.seed = 21;
  models::BprTrainer trainer(model, &split.train.interactions, config);
  trainer.Train();
  eval::Evaluator evaluator(&split.train.interactions, &split.test, 20);
  const auto result = evaluator.Evaluate(
      [&](const std::vector<uint32_t>& users) {
        return model->ScoreAllItems(users);
      });
  if (per_user_recall != nullptr) *per_user_recall = result.per_user_recall;
  return result.recall;
}

TEST(IntegrationTest, TrainedModelsBeatRandomRanking) {
  const Pipeline p = MakePipeline(31);
  // Random-ranking recall baseline: K / (num candidate items) on average.
  const double random_recall = 20.0 / p.dataset.num_items();

  for (const char* name : {"BPR", "TrustSVD", "HOSR"}) {
    core::ZooConfig zoo;
    zoo.embedding_dim = 8;
    auto model = core::MakeModel(name, p.split.train, zoo);
    ASSERT_TRUE(model.ok());
    const double recall = TrainAndEvaluate(model->get(), p.split, 12);
    EXPECT_GT(recall, 2.0 * random_recall) << name;
  }
}

TEST(IntegrationTest, HosrOutperformsBprOnSocialData) {
  // The generator plants multi-hop social signal; HOSR should exploit it
  // and beat the interaction-only BPR baseline.
  const Pipeline p = MakePipeline(32);
  core::ZooConfig zoo;
  zoo.embedding_dim = 8;

  auto bpr = core::MakeModel("BPR", p.split.train, zoo);
  auto hosr = core::MakeModel("HOSR", p.split.train, zoo);
  ASSERT_TRUE(bpr.ok() && hosr.ok());

  std::vector<double> bpr_recall, hosr_recall;
  const double bpr_score =
      TrainAndEvaluate(bpr->get(), p.split, 15, &bpr_recall);
  const double hosr_score =
      TrainAndEvaluate(hosr->get(), p.split, 15, &hosr_recall);
  EXPECT_GT(hosr_score, bpr_score);

  // The per-user samples support a paired t-test as in Table 3.
  ASSERT_EQ(bpr_recall.size(), hosr_recall.size());
  const auto ttest = eval::PairedTTest(hosr_recall, bpr_recall);
  EXPECT_GT(ttest.mean_difference, 0.0);
}

TEST(IntegrationTest, DatasetRoundTripPreservesTrainingBehavior) {
  const Pipeline p = MakePipeline(33);
  const std::string dir = ::testing::TempDir() + "/hosr_integration_io";
  ASSERT_TRUE(data::SaveDataset(p.dataset, dir).ok());
  const auto reloaded = data::LoadDataset(dir);
  ASSERT_TRUE(reloaded.ok());

  // Same split seed + same data -> identical trained metric.
  auto run = [&](const data::Dataset& dataset) {
    util::Rng rng(7);
    auto split = data::SplitDataset(dataset, 0.2, &rng);
    HOSR_CHECK(split.ok());
    models::BprMf model(dataset.num_users(), dataset.num_items(),
                        {.embedding_dim = 6, .seed = 3});
    return TrainAndEvaluate(&model, *split, 5);
  };
  EXPECT_DOUBLE_EQ(run(p.dataset), run(*reloaded));
}

TEST(IntegrationTest, SparsityGroupsEvaluateEndToEnd) {
  const Pipeline p = MakePipeline(34);
  core::ZooConfig zoo;
  zoo.embedding_dim = 8;
  auto model = core::MakeModel("HOSR", p.split.train, zoo);
  ASSERT_TRUE(model.ok());
  TrainAndEvaluate(model->get(), p.split, 8);

  const auto groups = eval::BuildSparsityGroups(p.split.train.interactions,
                                                p.split.test, 4);
  ASSERT_EQ(groups.size(), 4u);
  eval::Evaluator evaluator(&p.split.train.interactions, &p.split.test, 20);
  size_t users_covered = 0;
  for (const auto& group : groups) {
    const auto result = evaluator.EvaluateUsers(
        [&](const std::vector<uint32_t>& users) {
          return model->get()->ScoreAllItems(users);
        },
        group.users);
    EXPECT_EQ(result.num_users, group.users.size());
    users_covered += result.num_users;
  }
  eval::Evaluator full(&p.split.train.interactions, &p.split.test, 20);
  EXPECT_EQ(users_covered,
            full.Evaluate([&](const std::vector<uint32_t>& users) {
                  return model->get()->ScoreAllItems(users);
                }).num_users);
}

TEST(IntegrationTest, Table1StyleNeighborGrowth) {
  // The neighbor-explosion phenomenon of Table 1 on a Yelp-like graph:
  // second-order neighborhoods dwarf first-order ones.
  const auto dataset = data::GenerateSynthetic(
      data::SyntheticConfig::YelpLike(0.05));
  ASSERT_TRUE(dataset.ok());
  const auto stats = graph::KOrderStats(dataset->social, 3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_GT(stats[1].avg_neighbors_per_user,
            5.0 * stats[0].avg_neighbors_per_user);
  EXPECT_GT(stats[2].avg_neighbors_per_user,
            stats[1].avg_neighbors_per_user);
}

TEST(IntegrationTest, AttentionWeightsRespondToSparsity) {
  // Fig. 7's qualitative pattern is extractable: weights exist, are
  // normalized, and vary between low- and high-degree users.
  const Pipeline p = MakePipeline(36);
  core::Hosr::Config config;
  config.embedding_dim = 8;
  config.num_layers = 3;
  config.seed = 9;
  core::Hosr model(p.split.train, config);
  TrainAndEvaluate(&model, p.split, 8);

  const tensor::Matrix weights = model.AttentionWeights();
  // Average last-layer weight for bottom-degree vs top-degree quartile.
  std::vector<std::pair<uint32_t, uint32_t>> by_degree;
  for (uint32_t u = 0; u < p.dataset.num_users(); ++u) {
    by_degree.emplace_back(p.dataset.social.Degree(u), u);
  }
  std::sort(by_degree.begin(), by_degree.end());
  const size_t quartile = by_degree.size() / 4;
  double low = 0, high = 0;
  for (size_t i = 0; i < quartile; ++i) {
    low += weights(by_degree[i].second, 2);
    high += weights(by_degree[by_degree.size() - 1 - i].second, 2);
  }
  low /= quartile;
  high /= quartile;
  // Both are valid probabilities; they should differ measurably.
  EXPECT_GT(std::fabs(low - high), 1e-4);
}

}  // namespace
}  // namespace hosr
