#include "models/early_stopping.h"

#include "autograd/checkpoint.h"
#include "util/logging.h"

namespace hosr::models {

namespace {

// Minimum improvement that counts as progress.
constexpr double kMinDelta = 1e-5;

}  // namespace

util::Status EarlyStoppingConfig::Validate() const {
  if (max_epochs == 0) {
    return util::Status::InvalidArgument("max_epochs must be > 0");
  }
  if (eval_stride == 0) {
    return util::Status::InvalidArgument("eval_stride must be > 0");
  }
  if (patience == 0) {
    return util::Status::InvalidArgument("patience must be > 0");
  }
  return util::Status::Ok();
}

EarlyStoppingResult TrainWithEarlyStopping(
    RankingModel* model, const data::InteractionMatrix* train,
    const TrainConfig& train_config, const EarlyStoppingConfig& config,
    const ValidationMetric& metric) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  BprTrainer trainer(model, train, train_config);

  EarlyStoppingResult result;
  autograd::ParamSnapshot best_params;
  double best = -1.0;
  uint32_t evals_without_improvement = 0;

  for (uint32_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    result.history.push_back(trainer.RunEpoch());
    ++result.epochs_run;
    const bool should_eval = (epoch + 1) % config.eval_stride == 0 ||
                             epoch + 1 == config.max_epochs;
    if (!should_eval) continue;

    const double value = metric(model);
    if (value > best + kMinDelta) {
      best = value;
      result.best_metric = value;
      result.best_epoch = epoch + 1;
      best_params = autograd::ParamSnapshot::Capture(*model->params());
      evals_without_improvement = 0;
    } else {
      ++evals_without_improvement;
      if (evals_without_improvement >= config.patience) {
        result.stopped_early = true;
        break;
      }
    }
  }

  if (!best_params.empty()) {
    best_params.Restore(model->params());
  }
  return result;
}

util::StatusOr<ValidationSplit> CarveValidation(
    const data::InteractionMatrix& train, double validation_fraction,
    util::Rng* rng) {
  if (validation_fraction <= 0.0 || validation_fraction >= 1.0) {
    return util::Status::InvalidArgument(
        "validation_fraction must be in (0,1)");
  }
  std::vector<data::Interaction> remainder_list;
  std::vector<data::Interaction> validation_list;
  for (uint32_t u = 0; u < train.num_users(); ++u) {
    std::vector<uint32_t> items = train.ItemsOf(u);
    if (items.empty()) continue;
    rng->Shuffle(items);
    auto num_validation = static_cast<size_t>(
        static_cast<double>(items.size()) * validation_fraction);
    num_validation = std::min(num_validation, items.size() - 1);
    for (size_t k = 0; k < items.size(); ++k) {
      if (k < num_validation) {
        validation_list.push_back({u, items[k]});
      } else {
        remainder_list.push_back({u, items[k]});
      }
    }
  }
  HOSR_ASSIGN_OR_RETURN(
      data::InteractionMatrix remainder,
      data::InteractionMatrix::FromInteractions(
          train.num_users(), train.num_items(), std::move(remainder_list)));
  HOSR_ASSIGN_OR_RETURN(
      data::InteractionMatrix validation,
      data::InteractionMatrix::FromInteractions(
          train.num_users(), train.num_items(), std::move(validation_list)));
  ValidationSplit split;
  split.train_remainder = std::move(remainder);
  split.validation = std::move(validation);
  return split;
}

}  // namespace hosr::models
