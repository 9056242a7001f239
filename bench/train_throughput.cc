// Training throughput of the one trainer loop (docs/PERFORMANCE.md "Sparse
// optimizer steps"): trains BPR-MF on a YelpLike synthetic dataset with
//
//   seq_dense   dense optimizer steps (every row of every table)
//   seq_sparse  row-sparse steps (only the rows the batch gathered)
//
// and publishes samples/sec for each, the median of five fresh runs of
// --bench_epochs timed epochs, plus their ratio. Only the dense rate
// carries a direction suffix (`seq_dense_samples_per_sec`), so
// bench_diff's 10% gate reads it: a sparse epoch takes under 0.1 s, and
// the sparse medians (`seq_sparse_samples_per_s`, `sparse_step_gain`)
// still moved 20% between back-to-back runs on a 4-vCPU guest, in the
// main thread's own CPU time too. Before measuring, it byte-compares the
// training states of short runs on the thread pool and inline inside a
// ParallelFor body, in both step modes, so the numbers are only ever
// reported for a trainer whose trajectory does not depend on how many
// threads its kernels use.
//
// Then time to Recall@20: HOSR d=64 on YelpLike 0.2 (fixed seed, 80/20
// split, batch 512, lr 1e-3, weight decay 1e-5) trains 40 epochs through
// BprTrainer::Train with an evaluation after each, and publishes
// `best_recall_at_20`, `epochs_to_recall95` (the first evaluation at or
// above 95% of the best) and `train_cpu_s_to_recall95` (process
// CPU-seconds in training up to it, evaluations excluded). Training is
// deterministic, so a new epoch count means the math changed.
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/train_throughput --metrics_out=bench_metrics/tt.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace hosr;

models::TrainConfig MakeConfig(uint32_t epochs) {
  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 512;
  config.learning_rate = 0.005f;
  config.weight_decay = 1e-4f;
  config.optimizer = "rmsprop";
  config.seed = 11;
  return config;
}

models::BprMf MakeModel(const data::Dataset& dataset, uint32_t dim) {
  models::BprMf::Config config;
  config.embedding_dim = dim;
  return models::BprMf(dataset.num_users(), dataset.num_items(), config);
}

// Trains a fresh model: one warmup epoch, then `timed_epochs` measured
// ones. Returns sampled triples per wall-clock second over the timed span.
double TimedRun(const data::Dataset& dataset, uint32_t dim,
                models::TrainConfig config, uint32_t timed_epochs) {
  config.epochs = 1 + timed_epochs;
  models::BprMf model = MakeModel(dataset, dim);
  models::BprTrainer trainer(&model, &dataset.interactions, config);
  (void)trainer.RunEpoch();  // warmup: page in tables, start the pool
  double seconds = 0.0;
  double samples = 0.0;
  while (trainer.epoch() < config.epochs) {
    const models::EpochStats stats = trainer.RunEpoch();
    seconds += stats.seconds;
    samples += static_cast<double>(stats.samples);
  }
  return seconds > 0.0 ? samples / seconds : 0.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string TrainedState(const data::Dataset& dataset, uint32_t dim,
                         bool sparse_steps, const std::string& path) {
  models::TrainConfig config = MakeConfig(/*epochs=*/1);
  config.sparse_steps = sparse_steps;
  models::BprMf model = MakeModel(dataset, dim);
  models::BprTrainer trainer(&model, &dataset.interactions, config);
  trainer.Train();
  HOSR_CHECK(trainer.SaveTrainingState(path).ok());
  std::string bytes = ReadRaw(path);
  std::remove(path.c_str());
  return bytes;
}

// Byte-compares the training state of a short run on the thread pool with
// one inside a ParallelFor body, where every kernel runs inline on one
// thread; aborts the bench if they diverge.
void CheckBitIdentity(const data::Dataset& dataset, uint32_t dim) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hosr_train_bench").string();
  std::filesystem::create_directories(dir);
  for (const bool sparse : {false, true}) {
    const std::string pooled =
        TrainedState(dataset, dim, sparse, dir + "/state_pool");
    std::string inlined;
    // Chunk 0 of a forked call of one-item chunks runs on this thread,
    // where the kernels' nested ParallelFor runs inline.
    util::ParallelFor(
        0, util::kForkChunks,
        [&](size_t begin, size_t) {
          if (begin != 0) return;
          inlined = TrainedState(dataset, dim, sparse, dir + "/state_inline");
        },
        /*min_chunk=*/1);
    HOSR_CHECK(!pooled.empty() && pooled == inlined)
        << "training state depends on the kernels' thread count ("
        << (sparse ? "sparse" : "dense") << " steps); refusing to bench";
    std::printf("bit-identity check: pool == inline training state, %s "
                "steps (%zu bytes)\n", sparse ? "sparse" : "dense",
                pooled.size());
  }
}

void TimeToRecall() {
  auto generated =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(0.2));
  HOSR_CHECK(generated.ok());
  util::Rng split_rng(99);
  auto split = data::SplitDataset(*generated, 0.2, &split_rng);
  HOSR_CHECK(split.ok());
  core::ZooConfig zoo;
  zoo.embedding_dim = 64;
  auto model = core::MakeModel("HOSR", split->train, zoo);
  HOSR_CHECK(model.ok());
  models::TrainConfig config;
  config.epochs = 40;
  config.batch_size = 512;
  config.learning_rate = 1e-3f;
  config.weight_decay = 1e-5f;
  config.seed = 7;
  config.eval_every = 1;
  models::BprTrainer trainer(model->get(), &split->train.interactions,
                             config);
  const eval::Evaluator evaluator(&split->train.interactions, &split->test,
                                  20);
  const auto trained = trainer.Train([&](models::RankingModel* m) {
    return evaluator.Evaluate([m](const std::vector<uint32_t>& users) {
      return m->ScoreAllItems(users);
    });
  });
  HOSR_CHECK(trained.ok()) << trained.status();
  const models::Evaluation& best = trained->evaluations[trained->best];
  const models::Evaluation* reached = &best;
  for (const models::Evaluation& evaluation : trained->evaluations) {
    if (evaluation.result.recall >= 0.95 * best.result.recall) {
      reached = &evaluation;
      break;
    }
  }
  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/train_throughput/best_recall_at_20")
      ->Set(best.result.recall);
  registry.GetGauge("bench/train_throughput/epochs_to_recall95")
      ->Set(reached->epoch);
  registry.GetGauge("bench/train_throughput/train_cpu_s_to_recall95")
      ->Set(reached->train_cpu_seconds);
  std::printf(
      "HOSR d=64, YelpLike 0.2: best Recall@20 %.4f at epoch %u of %u; "
      "95%% of it first at epoch %u, after %.2f training CPU-s\n",
      best.result.recall, best.epoch, config.epochs, reached->epoch,
      reached->train_cpu_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags = util::Flags::Parse(argc, argv);
  obs::InitFromFlags(flags);

  const double scale = flags.GetDouble("bench_scale", 0.6);
  const uint32_t dim =
      static_cast<uint32_t>(flags.GetInt("bench_dim", 64));
  const uint32_t timed_epochs =
      static_cast<uint32_t>(flags.GetInt("bench_epochs", 2));

  auto generated =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(scale));
  HOSR_CHECK(generated.ok());
  const data::Dataset dataset = std::move(generated).value();
  std::printf("dataset: %u users, %u items, %zu interactions, dim %u\n",
              dataset.num_users(), dataset.num_items(),
              dataset.interactions.nnz(), dim);

  CheckBitIdentity(dataset, dim);

  // An epoch here takes 0.1-0.2 s and one process can run slow for a
  // while, so each mode is timed in kRuns fresh trainers, the two modes
  // interleaved, and the medians are published.
  constexpr int kRuns = 5;
  models::TrainConfig dense_config = MakeConfig(1);
  models::TrainConfig sparse_config = dense_config;
  sparse_config.sparse_steps = true;
  std::vector<double> dense_runs, sparse_runs;
  for (int run = 0; run < kRuns; ++run) {
    dense_runs.push_back(TimedRun(dataset, dim, dense_config, timed_epochs));
    sparse_runs.push_back(TimedRun(dataset, dim, sparse_config, timed_epochs));
  }
  const double dense = Median(dense_runs);
  const double sparse = Median(sparse_runs);
  const double sparse_step_gain = dense > 0.0 ? sparse / dense : 0.0;

  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/train_throughput/seq_dense_samples_per_sec")
      ->Set(dense);
  registry.GetGauge("bench/train_throughput/seq_sparse_samples_per_s")
      ->Set(sparse);
  registry.GetGauge("bench/train_throughput/sparse_step_gain")
      ->Set(sparse_step_gain);

  std::printf(
      "seq_dense (dense steps):   %10.0f samples/s\n"
      "seq_sparse (sparse steps): %10.0f samples/s\n"
      "sparse step win:           %.2fx (medians of %d runs)\n",
      dense, sparse, sparse_step_gain, kRuns);

  TimeToRecall();
  return 0;
}
