// Training throughput of the one trainer loop (docs/PERFORMANCE.md "Sparse
// optimizer steps"): trains BPR-MF on a YelpLike synthetic dataset with
//
//   seq_dense   dense optimizer steps (every row of every table)
//   seq_sparse  row-sparse steps (only the rows the batch gathered)
//
// and publishes samples/sec for each plus their ratio,
// `sparse_step_speedup`. Before measuring, it byte-compares the training
// states of short runs on the thread pool and inline inside a pool task, in
// both step modes, so the numbers are only ever reported for a trainer
// whose trajectory does not depend on how many threads its kernels use.
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/train_throughput --metrics_out=bench_metrics/tt.json
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace hosr;

struct BenchResult {
  double samples_per_sec = 0.0;
};

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
BenchResult Measure(const data::Dataset& dataset, uint32_t dim,
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
  BenchResult result;
  result.samples_per_sec = seconds > 0.0 ? samples / seconds : 0.0;
  return result;
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
// one inside a pool task, where every kernel runs inline on one thread;
// aborts the bench if they diverge.
void CheckBitIdentity(const data::Dataset& dataset, uint32_t dim) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hosr_train_bench").string();
  std::filesystem::create_directories(dir);
  for (const bool sparse : {false, true}) {
    const std::string pooled =
        TrainedState(dataset, dim, sparse, dir + "/state_pool");
    std::string inlined;
    // Two one-item chunks put the first on a pool worker, where the
    // kernels' nested ParallelFor runs inline.
    util::ParallelFor(
        0, 2,
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

  models::TrainConfig config = MakeConfig(1);
  const BenchResult dense = Measure(dataset, dim, config, timed_epochs);
  config.sparse_steps = true;
  const BenchResult sparse = Measure(dataset, dim, config, timed_epochs);
  const double sparse_step_speedup =
      dense.samples_per_sec > 0.0
          ? sparse.samples_per_sec / dense.samples_per_sec
          : 0.0;

  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/train_throughput/seq_dense_samples_per_sec")
      ->Set(dense.samples_per_sec);
  registry.GetGauge("bench/train_throughput/seq_sparse_samples_per_sec")
      ->Set(sparse.samples_per_sec);
  registry.GetGauge("bench/train_throughput/sparse_step_speedup")
      ->Set(sparse_step_speedup);

  std::printf(
      "seq_dense (dense steps):   %10.0f samples/s\n"
      "seq_sparse (sparse steps): %10.0f samples/s\n"
      "sparse step win:           %.2fx\n",
      dense.samples_per_sec, sparse.samples_per_sec, sparse_step_speedup);
  return 0;
}
