#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "autograd/gradcheck.h"
#include "core/hosr_gat.h"
#include "core/hosr_joint.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "models/trainer.h"
#include "tensor/ops.h"

namespace hosr::core {
namespace {

data::Dataset TinyDataset() {
  data::Dataset d;
  auto interactions = data::InteractionMatrix::FromInteractions(
      5, 6, {{0, 0}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {4, 0}});
  HOSR_CHECK(interactions.ok());
  d.interactions = std::move(interactions).value();
  auto social =
      graph::SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  HOSR_CHECK(social.ok());
  d.social = std::move(social).value();
  return d;
}

const data::Dataset& MediumDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "ext-test";
    config.num_users = 150;
    config.num_items = 180;
    config.avg_interactions_per_user = 10;
    config.avg_relations_per_user = 6;
    config.seed = 55;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

// Checks BuildLoss's gradients on two batches: distinct sorted users, and
// unsorted repeated users with repeated items (item 0 twice as a positive,
// item 5 as a positive and a negative), which exercise the unique-and-remap
// step of the row-restricted loss tail.
template <typename Model>
void ExpectGradients(Model* model, double tol = 8e-2) {
  const std::vector<data::BprBatch> batches = {
      {{0, 2, 4}, {0, 3, 5}, {2, 1, 4}},
      {{4, 0, 4, 2}, {5, 0, 0, 3}, {1, 2, 5, 4}},
  };
  std::vector<autograd::Param*> params;
  for (size_t i = 0; i < model->params()->size(); ++i) {
    params.push_back(model->params()->at(i));
  }
  for (const data::BprBatch& batch : batches) {
    const auto result = autograd::CheckGradients(
        [&](autograd::Tape* tape) {
          util::Rng rng(1);
          return model->BuildLoss(tape, batch, &rng);
        },
        params, /*eps=*/2e-3, tol, /*zero_tol=*/2e-3);
    EXPECT_TRUE(result.passed)
        << "users " << batch.users.size() << ", worst: "
        << result.worst_entry << " rel err: " << result.max_relative_error;
  }
}

// BuildLoss runs the aggregation and Eq. 11 on the batch's unique rows
// only. Without dropout its value must equal -mean log sigmoid(s+ - s-)
// computed from ScoreAllItems, so a row set that loses or mislabels a row
// the loss reads fails here. Each user is scored in its own call, so
// ScoreAllItems, which runs the same tape tail, has a one-user row set that
// needs no remap.
template <typename Model>
void ExpectLossMatchesScoreAllItems(Model* model) {
  data::BprSampler sampler(&MediumDataset().interactions, 3);
  const data::BprBatch batch = sampler.SampleBatch(96);
  ASSERT_LT(UniqueRows({batch.users}).size(), batch.size());  // users repeat
  autograd::Tape tape;
  util::Rng rng(1);
  const double loss = model->BuildLoss(&tape, batch, &rng).value()(0, 0);
  double expected = 0.0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const tensor::Matrix scores = model->ScoreAllItems({batch.users[i]});
    const double margin = static_cast<double>(scores(0, batch.pos_items[i])) -
                          scores(0, batch.neg_items[i]);
    expected += std::log1p(std::exp(-margin));
  }
  expected /= static_cast<double>(batch.size());
  EXPECT_NEAR(loss, expected, 1e-5 * expected);
}

template <typename Model>
double TrainBriefly(Model* model, const data::Dataset& dataset,
                    uint32_t epochs) {
  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 128;
  config.learning_rate = 0.002f;
  config.weight_decay = 1e-5f;
  config.seed = 5;
  models::BprTrainer trainer(model, &dataset.interactions, config);
  const auto history = trainer.Train();
  return history.back().avg_loss / history.front().avg_loss;
}

// --- Row-restricted loss tail ------------------------------------------------

TEST(RowRestrictedLossTest, HosrMatchesScoreAllItems) {
  for (const LayerAggregation aggregation :
       {LayerAggregation::kLast, LayerAggregation::kAverage,
        LayerAggregation::kAttention}) {
    SCOPED_TRACE(static_cast<int>(aggregation));
    Hosr::Config config;
    config.embedding_dim = 8;
    config.aggregation = aggregation;
    config.graph_dropout = 0.0f;
    config.init_stddev = 0.5f;  // margins far from zero
    config.seed = 31;
    Hosr model(MediumDataset(), config);
    ExpectLossMatchesScoreAllItems(&model);
  }
}

TEST(RowRestrictedLossTest, HosrGatMatchesScoreAllItems) {
  HosrGat::Config config;
  config.embedding_dim = 8;
  config.graph_dropout = 0.0f;
  config.init_stddev = 0.5f;
  config.seed = 32;
  HosrGat model(MediumDataset(), config);
  ExpectLossMatchesScoreAllItems(&model);
}

TEST(RowRestrictedLossTest, HosrJointMatchesScoreAllItems) {
  HosrJoint::Config config;
  config.embedding_dim = 8;
  config.graph_dropout = 0.0f;
  config.init_stddev = 0.5f;
  config.seed = 33;
  HosrJoint model(MediumDataset(), config);
  ExpectLossMatchesScoreAllItems(&model);
}

// --- HosrJoint ---------------------------------------------------------------

TEST(HosrJointTest, ConfigValidation) {
  HosrJoint::Config config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_layers = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = HosrJoint::Config();
  config.graph_dropout = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HosrJointTest, ScoreShapesAndConsistency) {
  const data::Dataset& d = MediumDataset();
  HosrJoint::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 9;
  HosrJoint model(d, config);
  EXPECT_EQ(model.num_users(), d.num_users());
  EXPECT_EQ(model.num_items(), d.num_items());

  const std::vector<uint32_t> users{0, 3, 9};
  const std::vector<uint32_t> items{1, 5, 7};
  autograd::Tape tape;
  const auto pair_scores =
      model.ScorePairs(&tape, users, items, /*training=*/false);
  const tensor::Matrix all_scores = model.ScoreAllItems(users);
  for (size_t b = 0; b < users.size(); ++b) {
    EXPECT_NEAR(pair_scores.value()(b, 0), all_scores(b, items[b]), 1e-3);
  }
}

TEST(HosrJointTest, ItemsInfluenceUserEmbeddingViaPropagation) {
  // In the joint graph a user's final embedding depends on the *item*
  // embedding rows too (one hop user -> item), unlike social-only HOSR.
  const data::Dataset d = TinyDataset();
  HosrJoint::Config config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kLast;
  config.graph_dropout = 0.0f;
  config.seed = 10;
  HosrJoint model(d, config);

  const tensor::Matrix before = model.FinalNodeEmbeddings();
  autograd::Param* emb = model.params()->Find("node_emb");
  ASSERT_NE(emb, nullptr);
  // Perturb item 0's base embedding (node index num_users + 0); user 0
  // interacted with item 0, so her row must change.
  emb->value(d.num_users() + 0, 0) += 1.0f;
  const tensor::Matrix after = model.FinalNodeEmbeddings();
  double delta = 0.0;
  for (size_t c = 0; c < 4; ++c) {
    delta += std::fabs(after(0, c) - before(0, c));
  }
  EXPECT_GT(delta, 1e-6);
}

TEST(HosrJointTest, GradientsCheck) {
  const data::Dataset d = TinyDataset();
  HosrJoint::Config config;
  config.embedding_dim = 3;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 11;
  HosrJoint model(d, config);
  ExpectGradients(&model);
}

TEST(HosrJointTest, TrainingReducesLoss) {
  const data::Dataset& d = MediumDataset();
  HosrJoint::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.seed = 12;
  HosrJoint model(d, config);
  EXPECT_LT(TrainBriefly(&model, d, 10), 0.95);
}

TEST(HosrJointCheckDeathTest, RejectsItemNodesAsUsers) {
  // Node ids n..n+m-1 are items: a user id there must abort, not score an
  // item node as if it were a user.
  const data::Dataset d = TinyDataset();
  HosrJoint::Config config;
  config.embedding_dim = 3;
  config.num_layers = 1;
  HosrJoint model(d, config);
  const uint32_t item_node = d.num_users();
  EXPECT_DEATH(model.ScoreAllItems({item_node}), "Check failed");
  EXPECT_DEATH(
      {
        autograd::Tape tape;
        model.ScorePairs(&tape, {item_node}, {0}, /*training=*/false);
      },
      "Check failed");
  EXPECT_DEATH(
      {
        autograd::Tape tape;
        util::Rng rng(1);
        model.BuildLoss(&tape, {{item_node}, {0}, {1}}, &rng);
      },
      "Check failed");
}

TEST(HosrJointTest, GraphDropoutResamples) {
  const data::Dataset& d = MediumDataset();
  HosrJoint::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.graph_dropout = 0.4f;
  config.seed = 13;
  HosrJoint model(d, config);
  util::Rng rng(2);
  model.OnEpochBegin(0, &rng);
  autograd::Tape t1;
  const float s1 = model.ScorePairs(&t1, {0}, {0}, true).value()(0, 0);
  model.OnEpochBegin(1, &rng);
  autograd::Tape t2;
  const float s2 = model.ScorePairs(&t2, {0}, {0}, true).value()(0, 0);
  EXPECT_NE(s1, s2);
}

// --- HosrGat ----------------------------------------------------------------

TEST(HosrGatTest, ConfigValidation) {
  HosrGat::Config config;
  EXPECT_TRUE(config.Validate().ok());
  config.leaky_slope = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = HosrGat::Config();
  config.embedding_dim = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(HosrGatTest, EdgeArraysIncludeSelfLoops) {
  const data::Dataset d = TinyDataset();
  HosrGat::Config config;
  config.embedding_dim = 4;
  config.seed = 14;
  HosrGat model(d, config);
  const auto& offsets = model.edge_offsets();
  const auto& targets = model.edge_targets();
  ASSERT_EQ(offsets.size(), d.num_users() + 1);
  // Every user's segment starts with the self-loop.
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    ASSERT_LT(offsets[u], targets.size());
    EXPECT_EQ(targets[offsets[u]], u);
    // Segment size = 1 (self) + degree.
    EXPECT_EQ(offsets[u + 1] - offsets[u], 1 + d.social.Degree(u));
  }
}

TEST(HosrGatTest, EdgeAttentionIsPerSourceDistribution) {
  const data::Dataset& d = MediumDataset();
  HosrGat::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.seed = 15;
  HosrGat model(d, config);
  const auto alpha = model.FirstLayerEdgeAttention();
  const auto& offsets = model.edge_offsets();
  ASSERT_EQ(alpha.size(), model.edge_targets().size());
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    float sum = 0.0f;
    for (size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      EXPECT_GT(alpha[e], 0.0f);
      sum += alpha[e];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4);
  }
  // Attention is non-uniform somewhere (it is learned, not fixed decay).
  bool non_uniform = false;
  for (uint32_t u = 0; u < d.num_users() && !non_uniform; ++u) {
    const size_t size = offsets[u + 1] - offsets[u];
    if (size < 2) continue;
    const float first = alpha[offsets[u]];
    for (size_t e = offsets[u] + 1; e < offsets[u + 1]; ++e) {
      if (std::fabs(alpha[e] - first) > 1e-6) {
        non_uniform = true;
        break;
      }
    }
  }
  EXPECT_TRUE(non_uniform);
}

TEST(HosrGatTest, ScoreConsistency) {
  const data::Dataset& d = MediumDataset();
  HosrGat::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 16;
  HosrGat model(d, config);
  const std::vector<uint32_t> users{1, 4, 40};
  const std::vector<uint32_t> items{0, 9, 33};
  autograd::Tape tape;
  const auto pair_scores =
      model.ScorePairs(&tape, users, items, /*training=*/false);
  const tensor::Matrix all_scores = model.ScoreAllItems(users);
  for (size_t b = 0; b < users.size(); ++b) {
    EXPECT_NEAR(pair_scores.value()(b, 0), all_scores(b, items[b]), 1e-3);
  }
}

TEST(HosrGatTest, GradientsCheck) {
  const data::Dataset d = TinyDataset();
  HosrGat::Config config;
  config.embedding_dim = 3;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 17;
  HosrGat model(d, config);
  ExpectGradients(&model, /*tol=*/0.12);  // LeakyReLU kinks
}

TEST(HosrGatTest, TrainingReducesLoss) {
  const data::Dataset& d = MediumDataset();
  HosrGat::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.seed = 18;
  HosrGat model(d, config);
  EXPECT_LT(TrainBriefly(&model, d, 10), 0.95);
}

TEST(HosrGatTest, TrainedModelBeatsRandomRanking) {
  const data::Dataset& d = MediumDataset();
  util::Rng split_rng(3);
  const auto split = data::SplitDataset(d, 0.2, &split_rng);
  ASSERT_TRUE(split.ok());
  HosrGat::Config config;
  config.embedding_dim = 8;
  config.num_layers = 2;
  config.seed = 19;
  HosrGat model(split->train, config);
  models::TrainConfig train_config;
  train_config.epochs = 15;
  train_config.batch_size = 128;
  train_config.learning_rate = 0.002f;
  train_config.weight_decay = 1e-5f;
  train_config.seed = 19;
  models::BprTrainer trainer(&model, &split->train.interactions,
                             train_config);
  trainer.Train();
  eval::Evaluator evaluator(&split->train.interactions, &split->test, 20);
  const auto result =
      evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
        return model.ScoreAllItems(users);
      });
  EXPECT_GT(result.recall, 2.0 * 20.0 / d.num_items());
}

// --- Simplified-propagation (LightGCN-style) flags on HOSR ---------------------

TEST(HosrSimplifiedTest, NoWeightsNoActivationRunsAndDiffers) {
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 6;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 20;
  Hosr full(d, config);
  config.use_layer_weights = false;
  config.use_activation = false;
  Hosr simplified(d, config);
  // No W parameters registered.
  EXPECT_EQ(simplified.params()->Find("gcn_w1"), nullptr);
  EXPECT_NE(full.params()->Find("gcn_w1"), nullptr);
  const auto full_emb = full.FinalUserEmbeddings();
  const auto simple_emb = simplified.FinalUserEmbeddings();
  EXPECT_FALSE(tensor::AllClose(full_emb, simple_emb, 1e-6));
}

TEST(HosrSimplifiedTest, SimplifiedPropagationIsPureLaplacianPower) {
  // Without weights/activation, one layer output == L * U0 exactly.
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kLast;
  config.item_implicit_term = false;
  config.use_layer_weights = false;
  config.use_activation = false;
  config.graph_dropout = 0.0f;
  config.seed = 21;
  Hosr model(d, config);
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(d.social.adjacency());
  const tensor::Matrix expected =
      graph::Spmm(laplacian, model.params()->Find("user_emb")->value);
  EXPECT_TRUE(tensor::AllClose(model.FinalUserEmbeddings(), expected, 1e-6));
}

TEST(HosrSimplifiedTest, GradientsCheckWithoutWeights) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 3;
  config.num_layers = 2;
  config.use_layer_weights = false;
  config.use_activation = false;
  config.graph_dropout = 0.0f;
  config.seed = 22;
  Hosr model(d, config);
  ExpectGradients(&model);
}

}  // namespace
}  // namespace hosr::core
