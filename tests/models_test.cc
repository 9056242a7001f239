#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.h"
#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/deepinf.h"
#include "models/if_bpr.h"
#include "models/ncf.h"
#include "models/nscr.h"
#include "models/trainer.h"
#include "models/trust_svd.h"
#include "tensor/ops.h"

namespace hosr::models {
namespace {

// Small deterministic dataset shared by the model tests.
const data::Dataset& TestDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "model-test";
    config.num_users = 120;
    config.num_items = 150;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 6;
    config.seed = 99;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

// --- Cross-model consistency: tape scores must match inference scores -------

class ModelConsistencyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelConsistencyTest, ScorePairsMatchesScoreAllItems) {
  const data::Dataset& dataset = TestDataset();
  core::ZooConfig zoo;
  zoo.embedding_dim = 6;
  zoo.hosr_graph_dropout = 0.0f;  // inference path must match exactly
  auto model_or = core::MakeModel(GetParam(), dataset, zoo);
  ASSERT_TRUE(model_or.ok());
  auto& model = *model_or.value();

  const std::vector<uint32_t> users{0, 5, 17, 44, 99};
  const std::vector<uint32_t> items{3, 10, 20, 77, 149};

  autograd::Tape tape;
  const autograd::Value pair_scores =
      model.ScorePairs(&tape, users, items, /*training=*/false);
  const tensor::Matrix all_scores = model.ScoreAllItems(users);

  ASSERT_EQ(pair_scores.rows(), users.size());
  ASSERT_EQ(all_scores.rows(), users.size());
  ASSERT_EQ(all_scores.cols(), dataset.num_items());
  for (size_t b = 0; b < users.size(); ++b) {
    EXPECT_NEAR(pair_scores.value()(b, 0), all_scores(b, items[b]), 1e-3)
        << GetParam() << " row " << b;
  }
}

TEST_P(ModelConsistencyTest, TrainingReducesLoss) {
  const data::Dataset& dataset = TestDataset();
  util::Rng split_rng(5);
  const auto split = data::SplitDataset(dataset, 0.2, &split_rng);
  ASSERT_TRUE(split.ok());

  core::ZooConfig zoo;
  zoo.embedding_dim = 6;
  auto model_or = core::MakeModel(GetParam(), split->train, zoo);
  ASSERT_TRUE(model_or.ok());
  auto& model = *model_or.value();

  TrainConfig config;
  config.epochs = 25;
  config.batch_size = 128;
  config.learning_rate = 0.005f;
  config.weight_decay = 1e-5f;
  config.seed = 3;
  BprTrainer trainer(&model, &split->train.interactions, config);
  const auto history = trainer.Train()->epochs;
  ASSERT_EQ(history.size(), 25u);
  // Note: absolute loss levels differ across objectives (IF-BPR sums two
  // ranking terms), so assert relative improvement only.
  EXPECT_LT(history.back().avg_loss, 0.97 * history.front().avg_loss)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelConsistencyTest,
                         ::testing::ValuesIn(core::AllModelNames()));

// --- Gradient checks on miniature instances ----------------------------------

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

data::BprBatch TinyBatch() {
  data::BprBatch batch;
  batch.users = {0, 1, 4};
  batch.pos_items = {0, 2, 5};
  batch.neg_items = {3, 4, 1};
  return batch;
}

// `zero_tol` skips entries where both gradients are tiny; for ReLU models
// pass a larger value (kinks make tiny finite differences one-sided).
template <typename Model>
void CheckModelGradients(Model* model, double tol = 6e-2,
                         double zero_tol = 2e-3) {
  const data::BprBatch batch = TinyBatch();
  util::Rng rng(17);
  std::vector<autograd::Param*> params;
  for (size_t i = 0; i < model->params()->size(); ++i) {
    params.push_back(model->params()->at(i));
  }
  // Jitter every parameter slightly: zero-initialized biases otherwise put
  // ReLU pre-activations exactly on the kink, where the analytic gradient
  // (0) and the one-sided numeric gradient legitimately disagree.
  for (autograd::Param* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += rng.Gaussian(0.0f, 0.05f);
    }
  }
  // eps small enough to avoid ReLU-kink crossings; zero_tol masks entries
  // below float32 finite-difference noise.
  const auto result = autograd::CheckGradients(
      [&](autograd::Tape* tape) {
        util::Rng loss_rng(23);  // deterministic across evaluations
        return model->BuildLoss(tape, batch, &loss_rng);
      },
      params, /*eps=*/2e-3, tol, zero_tol);
  EXPECT_TRUE(result.passed) << "worst: " << result.worst_entry
                             << " rel err: " << result.max_relative_error;
}

TEST(ModelGradientsTest, BprMf) {
  const data::Dataset d = TinyDataset();
  BprMf model(d.num_users(), d.num_items(), {.embedding_dim = 3, .seed = 2});
  CheckModelGradients(&model);
}

// Directional gradient check for ReLU models: per-entry finite differences
// are ill-defined near kinks, but the analytic gradient must still predict
// the first-order loss drop along its own direction.
template <typename Model>
void CheckDirectionalGradient(Model* model, double tol = 0.25) {
  const data::BprBatch batch = TinyBatch();
  auto eval_loss = [&] {
    autograd::Tape tape;
    util::Rng loss_rng(23);
    return model->BuildLoss(&tape, batch, &loss_rng).value()(0, 0);
  };
  const double loss0 = eval_loss();
  model->params()->ZeroGrad();
  {
    autograd::Tape tape;
    util::Rng loss_rng(23);
    tape.Backward(model->BuildLoss(&tape, batch, &loss_rng));
  }
  double grad_norm_sq = 0.0;
  for (size_t i = 0; i < model->params()->size(); ++i) {
    grad_norm_sq += tensor::SquaredNorm(model->params()->at(i)->grad);
  }
  ASSERT_GT(grad_norm_sq, 0.0);
  const double eta = 1e-3 / std::sqrt(grad_norm_sq);
  for (size_t i = 0; i < model->params()->size(); ++i) {
    autograd::Param* p = model->params()->at(i);
    for (size_t j = 0; j < p->value.size(); ++j) {
      p->value.data()[j] -= static_cast<float>(eta) * p->grad.data()[j];
    }
  }
  const double actual_drop = loss0 - eval_loss();
  const double predicted_drop = eta * grad_norm_sq;
  EXPECT_NEAR(actual_drop / predicted_drop, 1.0, tol)
      << "loss0=" << loss0 << " drop=" << actual_drop
      << " predicted=" << predicted_drop;
}

TEST(ModelGradientsTest, Ncf) {
  const data::Dataset d = TinyDataset();
  Ncf::Config config;
  config.embedding_dim = 3;
  config.num_hidden_layers = 2;
  config.seed = 2;
  Ncf model(d.num_users(), d.num_items(), config);
  CheckDirectionalGradient(&model);
}

TEST(ModelGradientsTest, TrustSvd) {
  const data::Dataset d = TinyDataset();
  TrustSvd::Config config;
  config.embedding_dim = 3;
  config.seed = 2;
  TrustSvd model(d, config);
  CheckModelGradients(&model);
}

TEST(ModelGradientsTest, Nscr) {
  const data::Dataset d = TinyDataset();
  Nscr::Config config;
  config.embedding_dim = 3;
  config.num_hidden_layers = 2;
  config.seed = 2;
  Nscr model(d, config);
  CheckDirectionalGradient(&model);
}

TEST(ModelGradientsTest, IfBpr) {
  const data::Dataset d = TinyDataset();
  IfBpr::Config config;
  config.embedding_dim = 3;
  config.seed = 2;
  IfBpr model(d, config);
  CheckModelGradients(&model);
}

TEST(ModelGradientsTest, DeepInf) {
  const data::Dataset d = TinyDataset();
  DeepInf::Config config;
  config.embedding_dim = 3;
  config.num_layers = 2;
  config.sample_size = 3;
  config.seed = 2;
  DeepInf model(d, config);
  CheckDirectionalGradient(&model);
}

// --- Model-specific behaviors ---------------------------------------------------

TEST(BprMfTest, ShapesAndName) {
  BprMf model(10, 20, {.embedding_dim = 4, .seed = 1});
  EXPECT_EQ(model.name(), "BPR");
  EXPECT_EQ(model.num_users(), 10u);
  EXPECT_EQ(model.num_items(), 20u);
  EXPECT_EQ(model.user_embeddings().rows(), 10u);
  EXPECT_EQ(model.item_embeddings().cols(), 4u);
  EXPECT_EQ(model.params()->size(), 2u);
}

TEST(BprMfTest, ScoreIsDotProduct) {
  BprMf model(3, 3, {.embedding_dim = 2, .seed = 1});
  const auto& u = model.user_embeddings();
  const auto& v = model.item_embeddings();
  const tensor::Matrix scores = model.ScoreAllItems({1});
  const float expected = u(1, 0) * v(2, 0) + u(1, 1) * v(2, 1);
  EXPECT_NEAR(scores(0, 2), expected, 1e-5);
}

TEST(TrustSvdTest, SocialTermChangesScores) {
  // Against a plain-MF control with identical seeds, TrustSVD's effective
  // embedding must differ (social + implicit terms are added).
  const data::Dataset d = TinyDataset();
  TrustSvd::Config config;
  config.embedding_dim = 4;
  config.seed = 11;
  TrustSvd model(d, config);
  BprMf control(d.num_users(), d.num_items(),
                {.embedding_dim = 4, .seed = 11});
  const auto trust_scores = model.ScoreAllItems({0, 1});
  const auto mf_scores = control.ScoreAllItems({0, 1});
  EXPECT_FALSE(tensor::AllClose(trust_scores, mf_scores, 1e-6));
}

TEST(IfBprTest, ImplicitFriendsExcludeExplicitAndSelf) {
  const data::Dataset& dataset = TestDataset();
  IfBpr::Config config;
  config.embedding_dim = 4;
  config.seed = 3;
  IfBpr model(dataset, config);
  for (uint32_t u = 0; u < 40; ++u) {
    const auto explicit_friends = dataset.social.Neighbors(u);
    for (const uint32_t f : model.ImplicitFriends(u)) {
      EXPECT_NE(f, u);
      EXPECT_FALSE(std::binary_search(explicit_friends.begin(),
                                      explicit_friends.end(), f))
          << "user " << u << " implicit friend " << f;
    }
  }
}

TEST(IfBprTest, SocialItemsAreUnconsumedFriendItems) {
  const data::Dataset& dataset = TestDataset();
  IfBpr::Config config;
  config.embedding_dim = 4;
  config.seed = 3;
  IfBpr model(dataset, config);
  for (uint32_t u = 0; u < 40; ++u) {
    for (const uint32_t item : model.SocialItems(u)) {
      EXPECT_FALSE(dataset.interactions.Contains(u, item));
    }
  }
}

TEST(DeepInfTest, SampleSizeBoundsNeighborhood) {
  const data::Dataset& dataset = TestDataset();
  DeepInf::Config config;
  config.embedding_dim = 4;
  config.sample_size = 10;
  config.seed = 3;
  DeepInf model(dataset, config);
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    // sample + self loop.
    EXPECT_LE(model.SampledNeighborCount(u), 11u);
    EXPECT_GE(model.SampledNeighborCount(u), 1u);
  }
}

TEST(NcfTest, DistinctUsersGetDistinctScores) {
  const data::Dataset& dataset = TestDataset();
  Ncf::Config config;
  config.embedding_dim = 4;
  config.seed = 3;
  Ncf model(dataset.num_users(), dataset.num_items(), config);
  const auto scores = model.ScoreAllItems({0, 1});
  EXPECT_FALSE(tensor::AllClose(
      tensor::GatherRows(scores, {0}), tensor::GatherRows(scores, {1}), 1e-7));
}

// --- Trainer ---------------------------------------------------------------------

TEST(TrainerTest, ValidatesConfig) {
  TrainConfig config;
  config.epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainConfig();
  config.learning_rate = -1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainConfig();
  EXPECT_TRUE(config.Validate().ok());
}

TEST(TrainerTest, EpochStatsProgress) {
  const data::Dataset& dataset = TestDataset();
  BprMf model(dataset.num_users(), dataset.num_items(),
              {.embedding_dim = 4, .seed = 5});
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.seed = 5;
  BprTrainer trainer(&model, &dataset.interactions, config);
  const auto stats = trainer.Train()->epochs;
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].epoch, 0u);
  EXPECT_EQ(stats[2].epoch, 2u);
  for (const auto& s : stats) {
    EXPECT_GT(s.avg_loss, 0.0);
    EXPECT_GE(s.seconds, 0.0);
  }
}

TEST(TrainerTest, DeterministicGivenSeed) {
  const data::Dataset& dataset = TestDataset();
  auto run = [&] {
    BprMf model(dataset.num_users(), dataset.num_items(),
                {.embedding_dim = 4, .seed = 5});
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.seed = 5;
    BprTrainer trainer(&model, &dataset.interactions, config);
    return trainer.Train()->epochs.back().avg_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace hosr::models
