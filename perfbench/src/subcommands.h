#ifndef PERFBENCH_SUBCOMMANDS_H_
#define PERFBENCH_SUBCOMMANDS_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "models/model.h"
#include "models/trainer.h"
#include "util/flags.h"

namespace perfbench {

int GenData(const hosr::util::Flags& flags);
int GenSnapshot(const hosr::util::Flags& flags);
int Train(const hosr::util::Flags& flags);
int Load(const hosr::util::Flags& flags);
int Trace(const hosr::util::Flags& flags);

// The semantic training settings every training subcommand shares; engine
// knobs (threads, slice size, prefetch) keep the shipped defaults.
struct TrainSetup {
  std::string data;
  std::string model = "HOSR";
  uint32_t dim = 64;  // d of the paper's Sec. 2.5 cost terms
  uint64_t seed = 1;
  hosr::models::TrainConfig config;
};
TrainSetup ParseTrainSetup(const hosr::util::Flags& flags);

// One training session: the data, its 80/20 split, the model and the
// shipped trainer over the training part.
struct Session {
  hosr::data::Dataset dataset;
  hosr::data::Split split;
  std::unique_ptr<hosr::models::RankingModel> model;
  std::unique_ptr<hosr::models::BprTrainer> trainer;
};

hosr::data::Dataset LoadDatasetOrDie(const std::string& dir);

// Splits `dataset` with a seed-derived RNG, then builds the model and its
// trainer: everything set-up does after data::LoadDataset.
std::unique_ptr<Session> OpenSession(const TrainSetup& s,
                                     hosr::data::Dataset dataset);

}  // namespace perfbench

#endif  // PERFBENCH_SUBCOMMANDS_H_
