#ifndef HOSR_MODELS_EARLY_STOPPING_H_
#define HOSR_MODELS_EARLY_STOPPING_H_

#include <functional>
#include <vector>

#include "data/interactions.h"
#include "eval/evaluator.h"
#include "models/trainer.h"

namespace hosr::models {

// Early-stopping policy around BprTrainer: train up to `max_epochs`,
// evaluate a validation metric every `eval_stride` epochs, and stop when
// the metric has not improved (by more than 1e-5) for `patience`
// consecutive evaluations. The best epoch's parameters are restored into
// the model before returning.
struct EarlyStoppingConfig {
  uint32_t max_epochs = 200;
  uint32_t eval_stride = 5;
  // Number of consecutive non-improving evaluations tolerated.
  uint32_t patience = 3;

  util::Status Validate() const;
};

struct EarlyStoppingResult {
  // Value of the validation metric at the restored (best) parameters.
  double best_metric = 0.0;
  uint32_t best_epoch = 0;     // 1-based epoch index of the best snapshot
  uint32_t epochs_run = 0;     // total epochs actually trained
  bool stopped_early = false;  // false when max_epochs was exhausted
  std::vector<EpochStats> history;
};

// Validation metric: higher is better (e.g. Recall@20 on held-out data).
using ValidationMetric = std::function<double(RankingModel*)>;

// Runs the policy. `train_config.epochs` is ignored (max_epochs governs).
EarlyStoppingResult TrainWithEarlyStopping(
    RankingModel* model, const data::InteractionMatrix* train,
    const TrainConfig& train_config, const EarlyStoppingConfig& config,
    const ValidationMetric& metric);

// Convenience: carves a per-user fraction of `train` into a validation set
// (at least one interaction stays in the remainder) and returns both. Used
// to early-stop without touching the test split.
struct ValidationSplit {
  data::InteractionMatrix train_remainder;
  data::InteractionMatrix validation;
};
util::StatusOr<ValidationSplit> CarveValidation(
    const data::InteractionMatrix& train, double validation_fraction,
    util::Rng* rng);

}  // namespace hosr::models

#endif  // HOSR_MODELS_EARLY_STOPPING_H_
