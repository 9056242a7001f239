#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "autograd/gradcheck.h"
#include "core/hosr.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
    config.name = "hosr-test";
    config.num_users = 150;
    config.num_items = 180;
    config.avg_interactions_per_user = 10;
    config.avg_relations_per_user = 6;
    config.seed = 77;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

// --- Config validation --------------------------------------------------------

TEST(HosrConfigTest, Validation) {
  Hosr::Config config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_layers = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = Hosr::Config();
  config.embedding_dropout = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = Hosr::Config();
  config.graph_dropout = -0.1f;
  EXPECT_FALSE(config.Validate().ok());
}

// --- Propagation matches Eq. 5 manually -------------------------------------

TEST(HosrPropagationTest, OneLayerMatchesManualEquation5) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kLast;
  config.item_implicit_term = false;
  config.graph_dropout = 0.0f;
  config.seed = 5;
  Hosr model(d, config);

  // Manual Eq. 5: U1 = tanh(L U0 W1).
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(d.social.adjacency());
  const tensor::Matrix& u0 = model.params()->Find("user_emb")->value;
  const tensor::Matrix& w1 = model.params()->Find("gcn_w1")->value;
  const tensor::Matrix expected =
      tensor::Tanh(tensor::MatMul(graph::Spmm(laplacian, u0), w1));

  const tensor::Matrix actual = model.FinalUserEmbeddings();
  EXPECT_TRUE(tensor::AllClose(actual, expected, 1e-5));
}

TEST(HosrPropagationTest, ScoreMatchesManualEquation11) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kLast;
  config.item_implicit_term = true;
  config.graph_dropout = 0.0f;
  config.seed = 6;
  Hosr model(d, config);

  const tensor::Matrix final_u = model.FinalUserEmbeddings();
  const tensor::Matrix& v = model.params()->Find("item_emb")->value;
  const tensor::Matrix scores = model.ScoreAllItems({0});

  // Eq. 11 by hand for user 0 (items {0,1}), target item 3.
  const auto& items = d.interactions.ItemsOf(0);
  std::vector<float> rep(4, 0.0f);
  for (size_t c = 0; c < 4; ++c) rep[c] = final_u(0, c);
  const float decay = 1.0f / std::sqrt(static_cast<float>(items.size()));
  for (const uint32_t j : items) {
    for (size_t c = 0; c < 4; ++c) rep[c] += decay * v(j, c);
  }
  float expected = 0.0f;
  for (size_t c = 0; c < 4; ++c) expected += rep[c] * v(3, c);
  EXPECT_NEAR(scores(0, 3), expected, 1e-4);
}

TEST(HosrPropagationTest, KLayersReachKHopNeighbors) {
  // Path graph: after k layers, user 0's embedding must depend on user k's
  // initial embedding but not user (k+1)'s.
  const data::Dataset d = TinyDataset();  // social path 0-1-2-3-4
  for (const uint32_t layers : {1u, 2u, 3u}) {
    Hosr::Config config;
    config.embedding_dim = 4;
    config.num_layers = layers;
    config.aggregation = LayerAggregation::kLast;
    config.item_implicit_term = false;
    config.graph_dropout = 0.0f;
    config.seed = 7;

    Hosr model(d, config);
    const tensor::Matrix before = model.FinalUserEmbeddings();

    // Perturb the initial embedding of user `layers` (exactly k hops from 0)
    // and of user `layers + 1` (k+1 hops, if it exists).
    autograd::Param* emb = model.params()->Find("user_emb");
    emb->value(layers, 0) += 1.0f;
    const tensor::Matrix after_khop = model.FinalUserEmbeddings();
    EXPECT_GT(std::fabs(after_khop(0, 0) - before(0, 0)) +
                  std::fabs(after_khop(0, 1) - before(0, 1)) +
                  std::fabs(after_khop(0, 2) - before(0, 2)) +
                  std::fabs(after_khop(0, 3) - before(0, 3)),
              1e-6)
        << layers << " layers: k-hop influence missing";
    emb->value(layers, 0) -= 1.0f;

    if (layers + 1 < 5) {
      emb->value(layers + 1, 0) += 1.0f;
      const tensor::Matrix after_far = model.FinalUserEmbeddings();
      for (size_t c = 0; c < 4; ++c) {
        EXPECT_NEAR(after_far(0, c), before(0, c), 1e-6)
            << layers << " layers: beyond-k influence leaked";
      }
      emb->value(layers + 1, 0) -= 1.0f;
    }
  }
}

// --- Attention ---------------------------------------------------------------

TEST(HosrAttentionTest, WeightsArePerUserSoftmax) {
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 6;
  config.num_layers = 3;
  config.aggregation = LayerAggregation::kAttention;
  config.graph_dropout = 0.0f;
  config.seed = 8;
  Hosr model(d, config);
  const tensor::Matrix weights = model.AttentionWeights();
  ASSERT_EQ(weights.rows(), d.num_users());
  ASSERT_EQ(weights.cols(), 3u);
  for (size_t r = 0; r < weights.rows(); ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(weights(r, c), 0.0f);
      sum += weights(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Weights vary across users (they are personalized).
  bool any_differs = false;
  for (size_t r = 1; r < weights.rows() && !any_differs; ++r) {
    any_differs = std::fabs(weights(r, 0) - weights(0, 0)) > 1e-6;
  }
  EXPECT_TRUE(any_differs);
}

TEST(HosrAttentionTest, AggregationIsConvexCombinationPlusWeights) {
  // The attention aggregate must equal the weighted sum of layer outputs
  // computed independently.
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.aggregation = LayerAggregation::kAttention;
  config.item_implicit_term = false;
  config.graph_dropout = 0.0f;
  config.seed = 9;
  Hosr model(d, config);

  // Recompute layers manually.
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(d.social.adjacency());
  const tensor::Matrix& u0 = model.params()->Find("user_emb")->value;
  const tensor::Matrix h1 = tensor::Tanh(tensor::MatMul(
      graph::Spmm(laplacian, u0), model.params()->Find("gcn_w1")->value));
  const tensor::Matrix h2 = tensor::Tanh(tensor::MatMul(
      graph::Spmm(laplacian, h1), model.params()->Find("gcn_w2")->value));

  const tensor::Matrix weights = model.AttentionWeights();
  const tensor::Matrix aggregate = model.FinalUserEmbeddings();
  for (size_t r = 0; r < aggregate.rows(); ++r) {
    for (size_t c = 0; c < aggregate.cols(); ++c) {
      const float expected =
          weights(r, 0) * h1(r, c) + weights(r, 1) * h2(r, c);
      EXPECT_NEAR(aggregate(r, c), expected, 1e-5);
    }
  }
}

TEST(HosrAttentionTest, OneLayerWeightsAreExactlyOne) {
  // One layer runs no softmax, yet Fig. 7's data keeps its (n x 1) shape.
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 6;
  config.num_layers = 1;
  config.aggregation = LayerAggregation::kAttention;
  config.seed = 8;
  Hosr model(d, config);
  const tensor::Matrix weights = model.AttentionWeights();
  ASSERT_EQ(weights.rows(), d.num_users());
  ASSERT_EQ(weights.cols(), 1u);
  for (size_t r = 0; r < weights.rows(); ++r) EXPECT_EQ(weights(r, 0), 1.0f);
}

TEST(HosrAttentionTest, HistogramObservesInferenceRowsOnly) {
  // hosr/attn_softmax_weight takes k weights per unique user an inference
  // forward scores, and none from a training batch.
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 6;
  config.num_layers = 3;
  config.aggregation = LayerAggregation::kAttention;
  config.seed = 8;
  Hosr model(d, config);
  obs::SetEnabled(true);
  const obs::Histogram& histogram = HOSR_HISTOGRAM("hosr/attn_softmax_weight");
  const uint64_t before = histogram.Count();
  autograd::Tape tape;
  util::Rng rng(1);
  model.BuildLoss(&tape, {{4, 0, 4}, {1, 2, 3}, {5, 6, 7}}, &rng);
  EXPECT_EQ(histogram.Count(), before);
  model.ScoreAllItems({4, 0, 4});
  EXPECT_EQ(histogram.Count(), before + 2 * 3);
  model.AttentionWeights();
  EXPECT_EQ(histogram.Count(), before + (2 + d.num_users()) * 3);
  obs::SetEnabled(false);
}

// --- Aggregation variants -------------------------------------------------------

TEST(HosrAggregationTest, AverageIsLayerMean) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.aggregation = LayerAggregation::kAverage;
  config.item_implicit_term = false;
  config.graph_dropout = 0.0f;
  config.seed = 10;
  Hosr model(d, config);

  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(d.social.adjacency());
  const tensor::Matrix& u0 = model.params()->Find("user_emb")->value;
  const tensor::Matrix h1 = tensor::Tanh(tensor::MatMul(
      graph::Spmm(laplacian, u0), model.params()->Find("gcn_w1")->value));
  const tensor::Matrix h2 = tensor::Tanh(tensor::MatMul(
      graph::Spmm(laplacian, h1), model.params()->Find("gcn_w2")->value));
  const tensor::Matrix expected =
      tensor::Scale(tensor::Add(h1, h2), 0.5f);
  EXPECT_TRUE(tensor::AllClose(model.FinalUserEmbeddings(), expected, 1e-5));
}

TEST(HosrAggregationTest, VariantsProduceDifferentEmbeddings) {
  const data::Dataset& d = MediumDataset();
  auto embeddings_for = [&](LayerAggregation aggregation) {
    Hosr::Config config;
    config.embedding_dim = 6;
    config.num_layers = 3;
    config.aggregation = aggregation;
    config.graph_dropout = 0.0f;
    config.seed = 11;
    Hosr model(d, config);
    return model.FinalUserEmbeddings();
  };
  const auto last = embeddings_for(LayerAggregation::kLast);
  const auto average = embeddings_for(LayerAggregation::kAverage);
  const auto attention = embeddings_for(LayerAggregation::kAttention);
  EXPECT_FALSE(tensor::AllClose(last, average, 1e-6));
  EXPECT_FALSE(tensor::AllClose(average, attention, 1e-6));
}

TEST(HosrAggregationTest, AttentionParamsOnlyForAttention) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.aggregation = LayerAggregation::kLast;
  config.seed = 12;
  Hosr base(d, config);
  EXPECT_EQ(base.params()->Find("attn_h"), nullptr);
  config.aggregation = LayerAggregation::kAttention;
  Hosr attn(d, config);
  EXPECT_NE(attn.params()->Find("attn_h"), nullptr);
}

// --- Dropout ----------------------------------------------------------------

TEST(HosrDropoutTest, GraphDropoutResamplesEachEpoch) {
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.graph_dropout = 0.5f;
  config.seed = 13;
  Hosr model(d, config);

  // Training-mode scores change when the epoch's graph changes.
  util::Rng rng(3);
  model.OnEpochBegin(0, &rng);
  autograd::Tape t1;
  const float s1 =
      model.ScorePairs(&t1, {0}, {0}, /*training=*/true).value()(0, 0);
  model.OnEpochBegin(1, &rng);
  autograd::Tape t2;
  const float s2 =
      model.ScorePairs(&t2, {0}, {0}, /*training=*/true).value()(0, 0);
  EXPECT_NE(s1, s2);

  // Inference scores are unaffected by graph dropout.
  const tensor::Matrix a = model.ScoreAllItems({0});
  model.OnEpochBegin(2, &rng);
  const tensor::Matrix b = model.ScoreAllItems({0});
  EXPECT_TRUE(tensor::AllClose(a, b, 0.0));
}

TEST(HosrDropoutTest, EmbeddingDropoutOnlyInTraining) {
  const data::Dataset d = TinyDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.embedding_dropout = 0.5f;
  config.graph_dropout = 0.0f;
  config.seed = 14;
  Hosr model(d, config);
  // Two inference calls agree (no stochasticity).
  autograd::Tape t1, t2;
  const auto s1 = model.ScorePairs(&t1, {0, 1}, {0, 1}, false);
  const auto s2 = model.ScorePairs(&t2, {0, 1}, {0, 1}, false);
  EXPECT_TRUE(tensor::AllClose(s1.value(), s2.value(), 0.0));
  // Two training calls differ (dropout masks differ).
  autograd::Tape t3, t4;
  const auto s3 = model.ScorePairs(&t3, {0, 1}, {0, 1}, true);
  const auto s4 = model.ScorePairs(&t4, {0, 1}, {0, 1}, true);
  EXPECT_FALSE(tensor::AllClose(s3.value(), s4.value(), 1e-9));
}

// --- Gradients ----------------------------------------------------------------

// Every aggregation, with the Eq. 11 item term on and off.
class HosrVariantTest : public ::testing::TestWithParam<
                            std::tuple<LayerAggregation, bool>> {
 protected:
  Hosr::Config VariantConfig() const {
    Hosr::Config config;
    config.aggregation = std::get<0>(GetParam());
    config.item_implicit_term = std::get<1>(GetParam());
    return config;
  }
};

TEST_P(HosrVariantTest, FullModelGradientsCheck) {
  const data::Dataset d = TinyDataset();
  // At one layer the row-restricted last layer reads the user_emb leaf
  // directly; at two it reads a full-graph layer.
  for (const uint32_t num_layers : {1u, 2u}) {
    Hosr::Config config = VariantConfig();
    config.embedding_dim = 3;
    config.num_layers = num_layers;
    config.graph_dropout = 0.0f;
    config.embedding_dropout = 0.0f;
    config.seed = 15;
    Hosr model(d, config);

    // Distinct sorted users, then unsorted repeated users: the last layer
    // and the loss tail run on the unique users and remap the batch onto
    // them.
    const std::vector<data::BprBatch> batches = {
        {{0, 2, 4}, {0, 3, 5}, {2, 1, 4}},
        {{4, 0, 4, 2}, {5, 0, 0, 3}, {1, 2, 5, 4}},
    };

    std::vector<autograd::Param*> params;
    for (size_t i = 0; i < model.params()->size(); ++i) {
      params.push_back(model.params()->at(i));
    }
    for (const data::BprBatch& batch : batches) {
      const auto result = autograd::CheckGradients(
          [&](autograd::Tape* tape) {
            util::Rng rng(1);
            return model.BuildLoss(tape, batch, &rng);
          },
          params, /*eps=*/2e-3, /*tolerance=*/0.1, /*zero_tol=*/1e-3);
      EXPECT_TRUE(result.passed)
          << num_layers << " layers, users " << batch.users.size()
          << ", worst: " << result.worst_entry
          << " rel err: " << result.max_relative_error;
    }
  }
}

TEST_P(HosrVariantTest, ScoreAllItemsRowsMatchAllUsersAndExport) {
  // Scoring, export and the tail's row set share one forward: a user's
  // scores are the same bits in an unsorted batch with a repeated user, in
  // the all-user call, and from the exported factors.
  const data::Dataset& d = MediumDataset();
  Hosr::Config config = VariantConfig();
  config.embedding_dim = 8;
  config.seed = 19;
  Hosr model(d, config);
  const std::vector<uint32_t> batch = {17, 3, 149, 3, 0, 88};
  const tensor::Matrix scores = model.ScoreAllItems(batch);
  const tensor::Matrix all = model.ScoreAllItems(AllRows(d.num_users()));
  const auto factors = model.ExportFactors();
  ASSERT_TRUE(factors.ok()) << factors.status();
  const tensor::Matrix exported =
      tensor::MatMulNT(factors->user_factors, factors->item_factors);
  ASSERT_EQ(scores.cols(), d.num_items());
  const size_t row_bytes = d.num_items() * sizeof(float);
  for (size_t b = 0; b < batch.size(); ++b) {
    EXPECT_EQ(std::memcmp(scores.row(b), all.row(batch[b]), row_bytes), 0)
        << "batch row " << b;
    EXPECT_EQ(std::memcmp(scores.row(b), exported.row(batch[b]), row_bytes),
              0)
        << "batch row " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregations, HosrVariantTest,
    ::testing::Combine(::testing::Values(LayerAggregation::kLast,
                                         LayerAggregation::kAverage,
                                         LayerAggregation::kAttention),
                       ::testing::Bool()));

// --- Training end-to-end ----------------------------------------------------------

TEST(HosrTrainingTest, LossDecreasesAndBeatsInitialRanking) {
  const data::Dataset& d = MediumDataset();
  util::Rng split_rng(4);
  const auto split = data::SplitDataset(d, 0.2, &split_rng);
  ASSERT_TRUE(split.ok());

  Hosr::Config config;
  config.embedding_dim = 8;
  config.num_layers = 2;
  config.graph_dropout = 0.1f;
  config.seed = 16;
  Hosr model(split->train, config);

  eval::Evaluator evaluator(&split->train.interactions, &split->test, 20);
  auto scorer = [&](const std::vector<uint32_t>& users) {
    return model.ScoreAllItems(users);
  };
  const double recall_before = evaluator.Evaluate(scorer).recall;

  models::TrainConfig train_config;
  train_config.epochs = 15;
  train_config.batch_size = 128;
  train_config.learning_rate = 0.003f;
  train_config.weight_decay = 1e-5f;
  train_config.seed = 16;
  models::BprTrainer trainer(&model, &split->train.interactions,
                             train_config);
  const auto history = trainer.Train();
  EXPECT_LT(history.back().avg_loss, history.front().avg_loss);

  const double recall_after = evaluator.Evaluate(scorer).recall;
  EXPECT_GT(recall_after, recall_before + 0.02);
}

TEST(HosrTrainingTest, TransposeBuiltOncePerGraph) {
  // The tape's SpMM borrows a cached transpose pointer (autograd/tape.h):
  // models must build it once at construction (or never, when the operator
  // is symmetric) and share it across every epoch, layer, and backward.
  // The spmm/transpose_builds counter audits that — it must stay flat
  // during training, including graph-dropout epochs that rebuild the
  // propagation operator.
  const data::Dataset& d = MediumDataset();
  Hosr::Config config;
  config.embedding_dim = 4;
  config.num_layers = 2;
  config.graph_dropout = 0.3f;  // forces a per-epoch operator rebuild
  config.seed = 21;
  Hosr model(d, config);

  auto& builds = HOSR_COUNTER("spmm/transpose_builds");
  const uint64_t after_construction = builds.Get();

  models::TrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = 128;
  train_config.learning_rate = 0.003f;
  train_config.seed = 21;
  models::BprTrainer trainer(&model, &d.interactions, train_config);
  trainer.Train();

  EXPECT_EQ(builds.Get(), after_construction)
      << "a transpose CSR was rebuilt during training";
}

}  // namespace
}  // namespace hosr::core
