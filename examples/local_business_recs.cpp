// Scenario: a Yelp-style local-business site. Interactions are sparse
// (~16 per user), so many users are hard to model from their own history —
// the data-sparsity problem Sec. 2.1 motivates.
//
// This example trains the full model zoo once and breaks Recall@20 down by
// interaction-sparsity group (Fig. 6's protocol), demonstrating where
// high-order social modeling pays off.
//
// Build & run:  ./build/examples/local_business_recs
#include <cstdio>

#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/trainer.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace hosr;

  auto dataset_or =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(0.06));
  if (!dataset_or.ok()) return 1;
  const data::Dataset& dataset = *dataset_or;
  util::Rng split_rng(11);
  auto split_or = data::SplitDataset(dataset, 0.2, &split_rng);
  if (!split_or.ok()) return 1;
  const data::Split& split = *split_or;

  std::printf("== Yelp-style local businesses: %u users, %u businesses, "
              "%.1f visits/user ==\n\n", dataset.num_users(),
              dataset.num_items(), dataset.Summarize().avg_interactions);

  const auto groups =
      eval::BuildSparsityGroups(split.train.interactions, split.test, 4);
  eval::Evaluator evaluator(&split.train.interactions, &split.test, 20);

  std::vector<std::string> header{"Model", "Overall"};
  for (const auto& group : groups) {
    header.push_back(group.Label() + " visits");
  }
  util::Table table(header);

  for (const std::string& name : {std::string("BPR"), std::string("TrustSVD"),
                                  std::string("HOSR")}) {
    core::ZooConfig zoo;
    zoo.embedding_dim = 10;
    zoo.seed = 11;
    auto model_or = core::MakeModel(name, split.train, zoo);
    if (!model_or.ok()) return 1;
    auto model = std::move(model_or).value();

    // Early-stop each model on a validation slice carved out of train —
    // the models converge at different speeds, and this keeps the test
    // split untouched during model selection.
    util::Rng carve_rng(11);
    auto carved = data::SplitDataset(split.train, 0.15, &carve_rng);
    if (!carved.ok()) return 1;
    eval::Evaluator validation(&carved->train.interactions, &carved->test,
                               20);
    models::TrainConfig config;
    config.epochs = 120;
    config.batch_size = 256;
    config.learning_rate = name == "HOSR" ? 0.001f
                           : name == "TrustSVD" ? 0.001f
                                                : 0.002f;
    config.weight_decay = 1e-5f;
    config.eval_every = 10;
    config.patience = 3;
    models::BprTrainer trainer(model.get(), &carved->train.interactions,
                               config);
    auto trained = trainer.Train([&](models::RankingModel* m) {
      return validation.Evaluate([&](const std::vector<uint32_t>& users) {
        return m->ScoreAllItems(users);
      });
    });
    if (!trained.ok()) return 1;

    auto scorer = [&](const std::vector<uint32_t>& users) {
      return model->ScoreAllItems(users);
    };
    std::vector<std::string> row{name,
                                 util::Table::Cell(
                                     evaluator.Evaluate(scorer).recall)};
    for (const auto& group : groups) {
      row.push_back(util::Table::Cell(
          evaluator.EvaluateUsers(scorer, group.users).recall));
    }
    table.AddRow(std::move(row));
  }

  std::printf("Recall@20 by user activity (sparsest group first):\n%s\n",
              table.ToText().c_str());
  std::printf("The gap between HOSR and the interaction-only baseline is "
              "widest for users with the fewest visits — high-order social "
              "context substitutes for missing interaction data.\n");
  return 0;
}
