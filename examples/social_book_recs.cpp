// Scenario: a Douban-style book community. Dense reading histories, a
// follow graph, and "word of mouth" influence chains (the paper's Fig. 1).
//
// This example trains HOSR next to the interaction-only BPR baseline and
// then inspects one influence chain: it picks a socially sparse reader,
// shows her friends' and friends-of-friends' books, and reports how many
// of HOSR's (vs BPR's) top recommendations are explained by 1-hop and
// 2-hop social neighborhoods.
//
// Build & run:  ./build/examples/social_book_recs
#include <algorithm>
#include <cstdio>
#include <set>

#include "core/hosr.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"

namespace {

using namespace hosr;

// Items consumed by any user in `users` (deduplicated).
std::set<uint32_t> ItemsOfUsers(const data::InteractionMatrix& interactions,
                                const std::vector<uint32_t>& users) {
  std::set<uint32_t> items;
  for (const uint32_t u : users) {
    for (const uint32_t item : interactions.ItemsOf(u)) items.insert(item);
  }
  return items;
}

void Train(models::RankingModel* model,
           const data::InteractionMatrix& train, float lr) {
  models::TrainConfig config;
  config.epochs = 35;
  config.batch_size = 256;
  config.learning_rate = lr;
  config.weight_decay = 1e-5f;
  models::BprTrainer trainer(model, &train, config);
  trainer.Train();
}

}  // namespace

int main() {
  auto dataset_or =
      data::GenerateSynthetic(data::SyntheticConfig::DoubanLike(0.05));
  if (!dataset_or.ok()) return 1;
  const data::Dataset& dataset = *dataset_or;
  util::Rng split_rng(7);
  auto split_or = data::SplitDataset(dataset, 0.2, &split_rng);
  if (!split_or.ok()) return 1;
  const data::Split& split = *split_or;

  std::printf("== Douban-style book community: %u readers, %u books ==\n\n",
              dataset.num_users(), dataset.num_items());

  core::Hosr::Config hosr_config;
  hosr_config.embedding_dim = 10;
  hosr_config.num_layers = 3;
  core::Hosr hosr(split.train, hosr_config);
  Train(&hosr, split.train.interactions, 0.0015f);

  models::BprMf bpr(dataset.num_users(), dataset.num_items(),
                    {.embedding_dim = 10, .seed = 7});
  Train(&bpr, split.train.interactions, 0.002f);

  eval::Evaluator evaluator(&split.train.interactions, &split.test, 20);
  auto eval_model = [&](models::RankingModel* model) {
    return evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
      return model->ScoreAllItems(users);
    });
  };
  const auto hosr_result = eval_model(&hosr);
  const auto bpr_result = eval_model(&bpr);
  std::printf("HOSR: R@20=%.4f MAP@20=%.4f | BPR: R@20=%.4f MAP@20=%.4f\n\n",
              hosr_result.recall, hosr_result.map, bpr_result.recall,
              bpr_result.map);

  // Pick a socially sparse but connected reader (degree 1-3).
  uint32_t reader = 0;
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    if (dataset.social.Degree(u) >= 1 && dataset.social.Degree(u) <= 3 &&
        split.train.interactions.ItemsOf(u).size() >= 3) {
      reader = u;
      break;
    }
  }
  const auto friends = dataset.social.Neighbors(reader);
  std::set<uint32_t> fof_set;
  for (const uint32_t f : friends) {
    for (const uint32_t ff : dataset.social.Neighbors(f)) {
      if (ff != reader &&
          !std::binary_search(friends.begin(), friends.end(), ff)) {
        fof_set.insert(ff);
      }
    }
  }
  const std::vector<uint32_t> friends_of_friends(fof_set.begin(),
                                                 fof_set.end());

  std::printf("reader %u: %zu books read, %zu friends, %zu "
              "friends-of-friends\n", reader,
              split.train.interactions.ItemsOf(reader).size(),
              friends.size(), friends_of_friends.size());

  const auto friend_books = ItemsOfUsers(split.train.interactions, friends);
  const auto fof_books =
      ItemsOfUsers(split.train.interactions, friends_of_friends);

  auto social_overlap = [&](models::RankingModel* model, const char* name) {
    const tensor::Matrix scores = model->ScoreAllItems({reader});
    const auto top =
        eval::TopK(scores.row(0), dataset.num_items(), 20,
                   split.train.interactions.ItemsOf(reader));
    size_t from_friends = 0, from_fof = 0;
    for (const uint32_t item : top) {
      if (friend_books.count(item) > 0) ++from_friends;
      if (fof_books.count(item) > 0) ++from_fof;
    }
    std::printf("%-5s top-20: %zu read by friends, %zu read by "
                "friends-of-friends\n", name, from_friends, from_fof);
  };
  social_overlap(&hosr, "HOSR");
  social_overlap(&bpr, "BPR");

  std::printf("\nHOSR's recommendations draw visibly on the reader's 1- and "
              "2-hop neighborhoods — the propagated 'word of mouth' signal "
              "of the paper's Fig. 1.\n");
  return 0;
}
