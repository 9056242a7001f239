// The measured training process (untraced):
//   perfbench train --data=DIR --model=HOSR --lr=F --sparse_steps=0 --seed=N
//                   --epochs=E --setup_reps=R --out=FILE
// d=64, batch 512, RMSprop. Set-up (LoadDataset through trainer
// construction) runs R times; the last session trains. The timed
// window is `epochs` whole epochs of the shipped BprTrainer after one
// warm-up epoch.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/model_zoo.h"
#include "data/io.h"
#include "eval/evaluator.h"
#include "kernels/kernels.h"
#include "subcommands.h"

namespace perfbench {

TrainSetup ParseTrainSetup(const hosr::util::Flags& flags) {
  TrainSetup s;
  s.data = flags.GetString("data", "");
  if (s.data.empty()) Die("missing --data");
  s.model = flags.GetString("model", "HOSR");
  s.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  s.config.batch_size = 512;  // the paper's batch
  s.config.learning_rate = static_cast<float>(flags.GetDouble("lr", 0.001));
  s.config.weight_decay = 1e-5f;  // hosr_cli's default
  s.config.optimizer = "rmsprop";  // the paper's optimizer
  s.config.sparse_steps = flags.GetBool("sparse_steps", false);
  s.config.seed = s.seed;
  return s;
}

hosr::data::Dataset LoadDatasetOrDie(const std::string& dir) {
  auto dataset = hosr::data::LoadDataset(dir);
  if (!dataset.ok()) Die(dataset.status().ToString());
  return std::move(dataset).value();
}

std::unique_ptr<Session> OpenSession(const TrainSetup& s,
                                     hosr::data::Dataset dataset) {
  auto session = std::make_unique<Session>();
  session->dataset = std::move(dataset);
  hosr::util::Rng split_rng(s.seed * 2654435761u + 99);
  auto split = hosr::data::SplitDataset(session->dataset, 0.2, &split_rng);
  if (!split.ok()) Die(split.status().ToString());
  session->split = std::move(split).value();
  hosr::core::ZooConfig zoo;
  zoo.embedding_dim = s.dim;
  zoo.seed = s.seed + 7;
  auto model = hosr::core::MakeModel(s.model, session->split.train, zoo);
  if (!model.ok()) Die(model.status().ToString());
  session->model = std::move(model).value();
  session->trainer = std::make_unique<hosr::models::BprTrainer>(
      session->model.get(), &session->split.train.interactions, s.config);
  return session;
}

namespace {

double Recall20(Session* session) {
  hosr::eval::Evaluator evaluator(&session->split.train.interactions,
                                  &session->split.test, 20);
  return evaluator
      .Evaluate([&](const std::vector<uint32_t>& users) {
        return session->model->ScoreAllItems(users);
      })
      .recall;
}

}  // namespace

int Train(const hosr::util::Flags& flags) {
  const TrainSetup setup = ParseTrainSetup(flags);
  const int epochs = static_cast<int>(flags.GetInt("epochs", 4));
  const int setup_reps = static_cast<int>(flags.GetInt("setup_reps", 1));
  const std::string out = flags.GetString("out", "");

  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int r = 0; r < setup_reps; ++r) {
    session.reset();  // one session alive at a time
    const int64_t begin = NowNs();
    session = OpenSession(setup, LoadDatasetOrDie(setup.data));
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }

  const double recall_before = Recall20(session.get());
  std::vector<double> warmup_loss;
  warmup_loss.push_back(session->trainer->RunEpoch().avg_loss);

  // Each timed epoch is one slice of the window, bracketed by /proc samples.
  std::vector<double> samples, losses;
  std::vector<ProcSample> slices = {SampleProc("self")};
  for (int e = 0; e < epochs; ++e) {
    const hosr::models::EpochStats stats = session->trainer->RunEpoch();
    slices.push_back(SampleProc("self"));
    samples.push_back(static_cast<double>(stats.samples));
    losses.push_back(stats.avg_loss);
  }
  const double recall_after = Recall20(session.get());

  const std::string json =
      Json()
          .Str("dispatch", hosr::kernels::Active().name)
          .Int("num_users", session->dataset.num_users())
          .Int("num_items", session->dataset.num_items())
          .Int("train_interactions",
               static_cast<int64_t>(session->split.train.interactions.nnz()))
          .Nums("setup_s", setup_s)
          .Nums("warmup_loss", warmup_loss)
          .Nums("epoch_samples", samples)
          .Nums("epoch_loss", losses)
          .Num("recall_before", recall_before)
          .Num("recall_after", recall_after)
          .Raw("slices", ProcListJson(slices))
          .Str("status", ReadFileOrDie("/proc/self/status"))
          .Done();
  WriteOrDie(out, json + "\n");
  return 0;
}

}  // namespace perfbench
