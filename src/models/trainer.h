#ifndef HOSR_MODELS_TRAINER_H_
#define HOSR_MODELS_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/interactions.h"
#include "eval/evaluator.h"
#include "models/model.h"
#include "optim/optimizer.h"
#include "util/statusor.h"

namespace hosr::models {

// Hyper-parameters of the paper's training protocol (Sec. 3.1).
struct TrainConfig {
  uint32_t epochs = 30;
  uint32_t batch_size = 512;           // fixed to 512 in the paper
  float learning_rate = 0.001f;        // tuned in {1e-4..5e-3}
  float weight_decay = 0.001f;         // the L2 coefficient lambda
  std::string optimizer = "rmsprop";   // the paper's optimizer
  data::NegativeSampling negative_sampling =
      data::NegativeSampling::kUniform;  // the paper's protocol
  uint64_t seed = 1;
  bool verbose = false;                // log per-epoch loss

  // Row-sparse optimizer steps (docs/PERFORMANCE.md "Sparse optimizer
  // steps"): a parameter only GatherRows reached steps just the rows the
  // batch gathered, and its untouched rows skip the step's weight decay
  // (lazy decay). CHANGES the trajectory relative to dense steps, so it is
  // part of the checkpoint config identity.
  bool sparse_steps = false;
  // Overlap batch sampling with backward/step via a background prefetch
  // thread. The batch sequence is unchanged (the prefetcher never samples
  // across an epoch boundary), so this never affects the trajectory.
  bool prefetch = true;

  // Train's schedule, not part of the training state: neither changes any
  // epoch's arithmetic. Evaluate every `eval_every` epochs (0 = after the
  // last only); stop after `patience` evaluations without a gain (0 = never).
  uint32_t eval_every = 0;
  uint32_t patience = 0;

  util::Status Validate() const;
};

// Progress record for one epoch.
struct EpochStats {
  uint32_t epoch = 0;
  double avg_loss = 0.0;
  double seconds = 0.0;
  size_t batches = 0;
  // BPR triples actually sampled this epoch (sum of batch sizes).
  size_t samples = 0;
  // Sampled BPR triples consumed per wall-clock second (0 if unmeasurable).
  double samples_per_sec = 0.0;
};

// One evaluation during Train: epochs trained so far, the process CPU- and
// wall-seconds they took (evaluations excluded), and the evaluator's result.
struct Evaluation {
  uint32_t epoch = 0;
  double train_cpu_seconds = 0.0;
  double train_wall_seconds = 0.0;
  eval::EvalResult result;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  std::vector<Evaluation> evaluations;
  size_t best = 0;  // index into evaluations
};

using EvaluateFn = std::function<eval::EvalResult(RankingModel*)>;
using EpochCallback = std::function<util::Status(const EpochStats&)>;

// Generic mini-batch trainer: samples BPR triples from the training matrix,
// asks the model for its loss, backpropagates, and steps the optimizer.
// Works unchanged for HOSR and all six baselines.
class BprTrainer {
 public:
  // `model` and `train` must outlive the trainer.
  BprTrainer(RankingModel* model, const data::InteractionMatrix* train,
             const TrainConfig& config);

  // The one loop that trains toward a best epoch. Runs the remaining
  // epochs (epoch() .. config.epochs), each followed by `evaluate` on the
  // config's schedule, then `on_epoch`, whose non-OK status ends training
  // and is returned. A gain is a Recall strictly above the best so far, so
  // the earliest of equal bests wins; each evaluation sets the
  // `trainer/eval_recall` gauge; the model returns with the best
  // evaluation's parameters.
  util::StatusOr<TrainResult> Train(const EvaluateFn& evaluate = nullptr,
                                    const EpochCallback& on_epoch = nullptr);

  // Runs a single epoch (one pass worth of sampled batches).
  EpochStats RunEpoch();

  const TrainConfig& config() const { return config_; }

  // Next epoch to run (== number of completed epochs).
  uint32_t epoch() const { return epoch_; }

  // Crash-safe training checkpoint: model parameters, optimizer state,
  // both RNG streams (trainer + sampler), and the epoch counter, written
  // atomically with a CRC-32 footer. A run restored from epoch E produces
  // bit-identical parameters to one that trained straight through — the
  // resume contract robustness_test locks in.
  //
  // RestoreTrainingState: IoError only if the file cannot be read;
  // FailedPrecondition for another model, optimizer or config; DataLoss
  // for corruption (CRC, short body, sentinel, optimizer slots that do not
  // fit the model's parameters). It decodes the whole body first, so a
  // rejected state leaves the trainer untouched.
  util::Status SaveTrainingState(const std::string& path) const;
  util::Status RestoreTrainingState(const std::string& path);

 private:
  // Steps the optimizer over the rows `tape`'s backward pass wrote, then
  // re-zeroes exactly those gradients.
  void StepSparse(const autograd::Tape& tape);

  RankingModel* model_;
  const data::InteractionMatrix* train_;
  TrainConfig config_;
  data::BprSampler sampler_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  util::Rng rng_;
  uint32_t epoch_ = 0;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_TRAINER_H_
