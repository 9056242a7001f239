// Quickstart: the smallest end-to-end use of the HOSR library.
//
//   1. generate a social-recommendation dataset (or load your own TSVs),
//   2. split 80/20,
//   3. train HOSR,
//   4. evaluate Recall@20 / MAP@20,
//   5. produce top-10 recommendations for one user.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/hosr.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "models/trainer.h"

int main() {
  using namespace hosr;

  // 1. A small Yelp-shaped dataset: long-tail social graph + implicit
  //    feedback with planted "word of mouth" correlation.
  data::SyntheticConfig data_config = data::SyntheticConfig::YelpLike(0.05);
  auto dataset_or = data::GenerateSynthetic(data_config);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 dataset_or.status().ToString().c_str());
    return 1;
  }
  const data::Dataset& dataset = *dataset_or;
  const auto stats = dataset.Summarize();
  std::printf("dataset: %u users, %u items, %zu interactions, %zu social "
              "edges\n", stats.num_users, stats.num_items,
              stats.num_interactions, stats.num_social_edges);

  // 2. The paper's 80/20 protocol.
  util::Rng split_rng(42);
  auto split_or = data::SplitDataset(dataset, 0.2, &split_rng);
  if (!split_or.ok()) {
    std::fprintf(stderr, "split failed: %s\n",
                 split_or.status().ToString().c_str());
    return 1;
  }
  const data::Split& split = *split_or;

  // 3. HOSR with the paper's defaults: 3 GCN layers over the social graph,
  //    attention aggregation, graph dropout 0.2.
  core::Hosr::Config model_config;
  model_config.embedding_dim = 10;
  model_config.num_layers = 3;
  core::Hosr model(split.train, model_config);

  models::TrainConfig train_config;
  train_config.epochs = 30;
  train_config.batch_size = 256;
  train_config.learning_rate = 0.0015f;
  train_config.weight_decay = 1e-5f;
  train_config.verbose = false;
  models::BprTrainer trainer(&model, &split.train.interactions,
                             train_config);
  std::printf("training %u epochs...\n", train_config.epochs);
  const auto trained = trainer.Train();
  std::printf("final BPR loss: %.4f\n", trained->epochs.back().avg_loss);

  // 4. Evaluate.
  eval::Evaluator evaluator(&split.train.interactions, &split.test, 20);
  const auto result =
      evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
        return model.ScoreAllItems(users);
      });
  std::printf("Recall@20 = %.4f   MAP@20 = %.4f   (over %zu test users)\n",
              result.recall, result.map, result.num_users);

  // 5. Top-10 recommendations for user 0 (training items masked).
  const uint32_t user = 0;
  const tensor::Matrix scores = model.ScoreAllItems({user});
  const auto top = eval::TopK(scores.row(0), dataset.num_items(), 10,
                              split.train.interactions.ItemsOf(user));
  std::printf("top-10 items for user %u:", user);
  for (const uint32_t item : top) std::printf(" %u", item);
  std::printf("\n");
  return 0;
}
