// Tests for HOSR configuration variants not covered by the main hosr_test:
// decay-factor choice of Eq. 11, ReLU activation, self-connection removal,
// and interactions between variants.
#include <gtest/gtest.h>

#include <cmath>

#include "core/hosr.h"
#include "data/synthetic.h"
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

Hosr::Config BaseConfig() {
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kLast;
  config.graph_dropout = 0.0f;
  config.seed = 33;
  return config;
}

TEST(HosrDecayTest, SqrtBothDecayMatchesManualComputation) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config = BaseConfig();
  config.implicit_decay = ImplicitDecay::kSqrtBoth;
  Hosr model(d, config);

  // Item degrees |A_j|: item0 consumed by users {0,4} -> 2; item1 by {0};
  // user 0's items are {0,1} so |I_0| = 2.
  const tensor::Matrix& v = model.params()->Find("item_emb")->value;
  const tensor::Matrix final_u = model.FinalUserEmbeddings();
  const tensor::Matrix scores = model.ScoreAllItems({0});

  std::vector<float> rep(4);
  for (size_t c = 0; c < 4; ++c) rep[c] = final_u(0, c);
  const float base = 1.0f / std::sqrt(2.0f);
  for (size_t c = 0; c < 4; ++c) {
    rep[c] += base / std::sqrt(2.0f) * v(0, c);  // item 0: |A_j| = 2
    rep[c] += base / std::sqrt(1.0f) * v(1, c);  // item 1: |A_j| = 1
  }
  float expected = 0.0f;
  for (size_t c = 0; c < 4; ++c) expected += rep[c] * v(3, c);
  EXPECT_NEAR(scores(0, 3), expected, 1e-4);
}

TEST(HosrDecayTest, DecayVariantsProduceDifferentScores) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config = BaseConfig();
  Hosr paper_decay(d, config);
  config.implicit_decay = ImplicitDecay::kSqrtBoth;
  Hosr both_decay(d, config);
  EXPECT_FALSE(tensor::AllClose(paper_decay.ScoreAllItems({0, 1}),
                                both_decay.ScoreAllItems({0, 1}), 1e-7));
}

TEST(HosrActivationTest, ReluMatchesManualPropagation) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config = BaseConfig();
  config.activation = Activation::kRelu;
  config.item_implicit_term = false;
  Hosr model(d, config);

  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(d.social.adjacency());
  const tensor::Matrix expected = tensor::Relu(tensor::MatMul(
      graph::Spmm(laplacian, model.params()->Find("user_emb")->value),
      model.params()->Find("gcn_w1")->value));
  EXPECT_TRUE(tensor::AllClose(model.FinalUserEmbeddings(), expected, 1e-5));
}

TEST(HosrSelfConnectionTest, WithoutSelfLoopsUsesPlainNormalizedAdjacency) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config = BaseConfig();
  config.self_connections = false;
  config.item_implicit_term = false;
  Hosr model(d, config);

  const graph::CsrMatrix na =
      graph::NormalizedAdjacency(d.social.adjacency());
  const tensor::Matrix expected = tensor::Tanh(tensor::MatMul(
      graph::Spmm(na, model.params()->Find("user_emb")->value),
      model.params()->Find("gcn_w1")->value));
  EXPECT_TRUE(tensor::AllClose(model.FinalUserEmbeddings(), expected, 1e-5));
}

TEST(HosrSelfConnectionTest, IsolatedUserWithoutSelfLoopGetsZeroLayerOutput) {
  // User 2 isolated; without self-connections its propagated embedding is
  // tanh(0 * W) = 0 (it still receives the item-implicit term in Eq. 11).
  data::Dataset d;
  auto interactions = data::InteractionMatrix::FromInteractions(
      3, 3, {{0, 0}, {1, 1}, {2, 2}});
  HOSR_CHECK(interactions.ok());
  d.interactions = std::move(interactions).value();
  auto social = graph::SocialGraph::FromEdges(3, {{0, 1}});
  HOSR_CHECK(social.ok());
  d.social = std::move(social).value();

  Hosr::Config config = BaseConfig();
  config.self_connections = false;
  config.item_implicit_term = false;
  Hosr model(d, config);
  const tensor::Matrix emb = model.FinalUserEmbeddings();
  for (size_t c = 0; c < emb.cols(); ++c) {
    EXPECT_FLOAT_EQ(emb(2, c), 0.0f);
  }
}

TEST(HosrVariantsTest, AllVariantCombinationsTrainOneEpoch) {
  const data::Dataset d = TinyDataset();
  for (const auto aggregation :
       {LayerAggregation::kLast, LayerAggregation::kAverage,
        LayerAggregation::kAttention}) {
    for (const auto activation : {Activation::kTanh, Activation::kRelu}) {
      for (const bool self : {true, false}) {
        for (const bool item_term : {true, false}) {
          Hosr::Config config;
          config.embedding_dim = 3;
          config.num_layers = 2;
          config.aggregation = aggregation;
          config.activation = activation;
          config.self_connections = self;
          config.item_implicit_term = item_term;
          config.graph_dropout = 0.1f;
          config.embedding_dropout = 0.1f;
          config.seed = 44;
          Hosr model(d, config);
          models::TrainConfig tc;
          tc.epochs = 1;
          tc.batch_size = 4;
          tc.learning_rate = 0.01f;
          tc.seed = 44;
          models::BprTrainer trainer(&model, &d.interactions, tc);
          const auto stats = trainer.Train()->epochs;
          EXPECT_TRUE(std::isfinite(stats[0].avg_loss));
          const auto scores = model.ScoreAllItems({0});
          EXPECT_EQ(scores.cols(), d.num_items());
        }
      }
    }
  }
}

TEST(HosrCheckDeathTest, ScoreAllItemsRejectsBadUser) {
  const data::Dataset d = TinyDataset();
  Hosr model(d, BaseConfig());
  EXPECT_DEATH(model.ScoreAllItems({99}), "Check failed");
}

TEST(HosrCheckDeathTest, InvalidConfigAborts) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config = BaseConfig();
  config.num_layers = 0;
  EXPECT_DEATH(Hosr(d, config), "Check failed");
}

}  // namespace
}  // namespace hosr::core
