// Tests for the adoption-oriented features: parameter checkpointing,
// BprTrainer::Train's evaluation schedule with best-epoch restore, and
// popularity-biased negative sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>

#include "autograd/checkpoint.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace hosr {
namespace {

// --- ParamSnapshot -----------------------------------------------------------

TEST(ParamSnapshotTest, CaptureRestoreRoundTrip) {
  autograd::ParamStore store;
  util::Rng rng(1);
  autograd::Param* a = store.CreateGaussian("a", 3, 4, 1.0f, &rng);
  autograd::Param* b = store.CreateGaussian("b", 2, 2, 1.0f, &rng);
  const tensor::Matrix a_before = a->value;
  const tensor::Matrix b_before = b->value;

  const auto snapshot = autograd::ParamSnapshot::Capture(store);
  a->value.Fill(0.0f);
  b->value.Fill(9.0f);
  snapshot.Restore(&store);
  EXPECT_TRUE(tensor::AllClose(a->value, a_before, 0.0));
  EXPECT_TRUE(tensor::AllClose(b->value, b_before, 0.0));
}

TEST(ParamSnapshotTest, EmptySnapshotReportsEmpty) {
  autograd::ParamSnapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
}

// --- Checkpoint files ----------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  autograd::ParamStore store;
  util::Rng rng(2);
  autograd::Param* a = store.CreateGaussian("emb", 5, 3, 1.0f, &rng);
  autograd::Param* w = store.CreateGaussian("w1", 3, 3, 1.0f, &rng);
  const tensor::Matrix a_before = a->value;
  const tensor::Matrix w_before = w->value;

  const std::string path = ::testing::TempDir() + "/hosr_ckpt_test.bin";
  ASSERT_TRUE(autograd::SaveCheckpoint(store, path).ok());

  a->value.Fill(0.0f);
  w->value.Fill(0.0f);
  ASSERT_TRUE(autograd::LoadCheckpoint(path, &store).ok());
  EXPECT_TRUE(tensor::AllClose(a->value, a_before, 0.0));
  EXPECT_TRUE(tensor::AllClose(w->value, w_before, 0.0));
}

TEST(CheckpointTest, LoadMatchesByNameNotOrder) {
  autograd::ParamStore source;
  util::Rng rng(3);
  autograd::Param* x = source.CreateGaussian("x", 2, 2, 1.0f, &rng);
  autograd::Param* y = source.CreateGaussian("y", 1, 4, 1.0f, &rng);
  const std::string path = ::testing::TempDir() + "/hosr_ckpt_order.bin";
  ASSERT_TRUE(autograd::SaveCheckpoint(source, path).ok());

  // Destination declares the parameters in the opposite order.
  autograd::ParamStore destination;
  destination.Create("y", 1, 4);
  destination.Create("x", 2, 2);
  ASSERT_TRUE(autograd::LoadCheckpoint(path, &destination).ok());
  EXPECT_TRUE(
      tensor::AllClose(destination.Find("x")->value, x->value, 0.0));
  EXPECT_TRUE(
      tensor::AllClose(destination.Find("y")->value, y->value, 0.0));
}

TEST(CheckpointTest, LoadRejectsMissingParam) {
  autograd::ParamStore source;
  source.Create("only", 2, 2);
  const std::string path = ::testing::TempDir() + "/hosr_ckpt_missing.bin";
  ASSERT_TRUE(autograd::SaveCheckpoint(source, path).ok());

  autograd::ParamStore destination;
  destination.Create("different_name", 2, 2);
  const auto status = autograd::LoadCheckpoint(path, &destination);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(CheckpointTest, LoadRejectsShapeMismatch) {
  autograd::ParamStore source;
  source.Create("w", 2, 2);
  const std::string path = ::testing::TempDir() + "/hosr_ckpt_shape.bin";
  ASSERT_TRUE(autograd::SaveCheckpoint(source, path).ok());

  autograd::ParamStore destination;
  destination.Create("w", 3, 3);
  EXPECT_FALSE(autograd::LoadCheckpoint(path, &destination).ok());
}

TEST(CheckpointTest, LoadRejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/hosr_ckpt_garbage.bin";
  {
    std::ofstream out(path);
    out << "definitely not a checkpoint";
  }
  autograd::ParamStore store;
  store.Create("w", 1, 1);
  EXPECT_FALSE(autograd::LoadCheckpoint(path, &store).ok());
}

// --- BprTrainer::Train: evaluation schedule, best epoch, callback ------------

const data::Dataset& FeatureDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.num_users = 200;
    config.num_items = 250;
    config.avg_interactions_per_user = 12;
    config.avg_relations_per_user = 6;
    config.seed = 123;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

// An evaluator whose Recall@20 is the next value of `script`; it copies the
// first parameter into `seen` at the `capture_at`-th evaluation (1-based).
models::EvaluateFn ScriptedRecall(std::vector<double> script,
                                  int capture_at, tensor::Matrix* seen) {
  return [script, capture_at, seen,
          count = 0](models::RankingModel* m) mutable {
    eval::EvalResult result;
    result.recall = script.at(count++);
    if (count == capture_at) *seen = m->params()->at(0)->value;
    return result;
  };
}

TEST(TrainTest, StopsWhenMetricPlateausAndRestoresBest) {
  const data::Dataset& dataset = FeatureDataset();
  models::BprMf model(dataset.num_users(), dataset.num_items(),
                      {.embedding_dim = 6, .seed = 4});

  // Scripted metric: rises for 3 evaluations, then falls — training must
  // stop after `patience` non-improving evals and restore eval-3 params.
  tensor::Matrix best_seen;
  models::TrainConfig train_config;
  train_config.epochs = 100;
  train_config.batch_size = 64;
  train_config.learning_rate = 0.01f;
  train_config.seed = 4;
  train_config.eval_every = 2;
  train_config.patience = 2;
  models::BprTrainer trainer(&model, &dataset.interactions, train_config);
  const auto result =
      trainer.Train(ScriptedRecall({1, 2, 3, -1, -2}, 3, &best_seen));
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_LT(trainer.epoch(), train_config.epochs);  // stopped early
  const models::Evaluation& best = result->evaluations[result->best];
  EXPECT_EQ(best.epoch, 6u);  // third evaluation at epoch 6
  EXPECT_DOUBLE_EQ(best.result.recall, 3.0);
  EXPECT_EQ(result->epochs.size(), 10u);  // 2 more evals after the best
  // Parameters restored to the best evaluation's snapshot.
  EXPECT_TRUE(
      tensor::AllClose(model.params()->at(0)->value, best_seen, 0.0));
}

TEST(TrainTest, RealMetricImprovesOverUntrained) {
  const data::Dataset& dataset = FeatureDataset();
  util::Rng rng(5);
  const auto split = data::SplitDataset(dataset, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  models::BprMf model(dataset.num_users(), dataset.num_items(),
                      {.embedding_dim = 6, .seed = 5});
  eval::Evaluator evaluator(&split->train.interactions, &split->test, 20);
  auto metric = [&](models::RankingModel* m) {
    return evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
      return m->ScoreAllItems(users);
    });
  };
  const double before = metric(&model).recall;

  models::TrainConfig train_config;
  train_config.epochs = 60;
  train_config.batch_size = 128;
  train_config.learning_rate = 0.005f;
  train_config.weight_decay = 1e-5f;
  train_config.seed = 5;
  train_config.eval_every = 5;
  train_config.patience = 3;
  models::BprTrainer trainer(&model, &split->train.interactions,
                             train_config);
  const auto result = trainer.Train(metric);
  ASSERT_TRUE(result.ok()) << result.status();
  const double best_metric = result->evaluations[result->best].result.recall;

  EXPECT_GT(best_metric, before);
  // Model holds the best parameters: re-evaluating reproduces best_metric.
  EXPECT_NEAR(metric(&model).recall, best_metric, 1e-9);
}

// The paper-figure benches' schedule: evaluate every few epochs and after
// the last, never stop early, keep the earliest of equal bests.
TEST(TrainTest, EvaluatesEveryNthAndLastEpochAndTheEarliestBestWins) {
  const data::Dataset& dataset = FeatureDataset();
  models::BprMf model(dataset.num_users(), dataset.num_items(),
                      {.embedding_dim = 6, .seed = 4});
  tensor::Matrix best_seen;
  models::TrainConfig train_config;
  train_config.epochs = 10;
  train_config.batch_size = 64;
  train_config.learning_rate = 0.01f;
  train_config.seed = 4;
  train_config.eval_every = 3;
  models::BprTrainer trainer(&model, &dataset.interactions, train_config);
  const auto result =
      trainer.Train(ScriptedRecall({1, 2, 2, 1}, 2, &best_seen));
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->epochs.size(), 10u);
  ASSERT_EQ(result->evaluations.size(), 4u);
  const uint32_t expected_epochs[] = {3, 6, 9, 10};
  double cpu_seconds = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result->evaluations[i].epoch, expected_epochs[i]);
    EXPECT_GE(result->evaluations[i].train_cpu_seconds, cpu_seconds);
    cpu_seconds = result->evaluations[i].train_cpu_seconds;
  }
  EXPECT_EQ(result->best, 1u);
  EXPECT_TRUE(
      tensor::AllClose(model.params()->at(0)->value, best_seen, 0.0));
}

TEST(TrainTest, FailingCallbackEndsTrainingWithItsStatus) {
  const data::Dataset& dataset = FeatureDataset();
  models::BprMf model(dataset.num_users(), dataset.num_items(),
                      {.embedding_dim = 6, .seed = 4});
  models::TrainConfig train_config;
  train_config.epochs = 10;
  train_config.batch_size = 64;
  train_config.seed = 4;
  models::BprTrainer trainer(&model, &dataset.interactions, train_config);
  int calls = 0;
  const auto result =
      trainer.Train(nullptr, [&](const models::EpochStats& stats) {
        ++calls;
        return stats.epoch == 1 ? util::Status::IoError("disk full")
                                : util::Status::Ok();
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(result.status().message(), "disk full");
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(trainer.epoch(), 2u);
}

// --- Popularity-biased negative sampling ------------------------------------------

TEST(PopularitySamplingTest, NegativesAreStillValid) {
  const data::Dataset& dataset = FeatureDataset();
  data::BprSampler sampler(&dataset.interactions, 8,
                           data::NegativeSampling::kPopularity);
  const auto batch = sampler.SampleBatch(500);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(
        dataset.interactions.Contains(batch.users[i], batch.neg_items[i]));
  }
}

TEST(PopularitySamplingTest, PopularItemsSampledMoreOften) {
  // Dataset where item 0 is consumed by almost everyone and item 1 by
  // nobody; a fresh user should see item 0 as a negative far more often.
  std::vector<data::Interaction> list;
  const uint32_t n_users = 50;
  for (uint32_t u = 1; u < n_users; ++u) list.push_back({u, 0});
  for (uint32_t u = 0; u < n_users; ++u) list.push_back({u, 2 + u % 8});
  auto matrix =
      data::InteractionMatrix::FromInteractions(n_users, 10, list);
  ASSERT_TRUE(matrix.ok());

  data::BprSampler sampler(&*matrix, 9, data::NegativeSampling::kPopularity);
  std::map<uint32_t, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[sampler.SampleNegative(0)];
  // User 0 never consumed item 0 (the most popular) nor item 1 (never
  // consumed by anyone). Popularity bias: item 0 dominates item 1.
  EXPECT_GT(counts[0], 4 * std::max(1, counts[1]));
}

TEST(PopularitySamplingTest, UniformRemainsDefaultInTrainer) {
  models::TrainConfig config;
  EXPECT_EQ(config.negative_sampling, data::NegativeSampling::kUniform);
}

}  // namespace
}  // namespace hosr
