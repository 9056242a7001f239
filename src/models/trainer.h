#ifndef HOSR_MODELS_TRAINER_H_
#define HOSR_MODELS_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/interactions.h"
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

// Generic mini-batch trainer: samples BPR triples from the training matrix,
// asks the model for its loss, backpropagates, and steps the optimizer.
// Works unchanged for HOSR and all six baselines.
class BprTrainer {
 public:
  // `model` and `train` must outlive the trainer.
  BprTrainer(RankingModel* model, const data::InteractionMatrix* train,
             const TrainConfig& config);

  // Runs the remaining epochs (epoch() .. config.epochs); returns their
  // stats. On a fresh trainer that is all `config.epochs` epochs; after
  // RestoreTrainingState it continues where the checkpoint left off.
  std::vector<EpochStats> Train();

  // Runs a single epoch (one pass worth of sampled batches); exposed so
  // benches can interleave training with evaluation snapshots.
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
  // RestoreTrainingState refuses checkpoints from a different model,
  // optimizer, or training config (FailedPrecondition) and corrupted files
  // (DataLoss, via the whole-file CRC gate); rejected checkpoints leave
  // the trainer untouched.
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
