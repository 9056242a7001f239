#ifndef HOSR_BENCH_COMMON_BENCH_UTIL_H_
#define HOSR_BENCH_COMMON_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model_zoo.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/model.h"
#include "models/trainer.h"
#include "util/flags.h"

namespace hosr::bench {

// Options shared by every table/figure bench, populated from command-line
// flags:
//   --scale=F    dataset scale vs the paper's size (default 0.08)
//   --epochs=N   training epochs per model (default 30)
//   --dim=D      embedding size for single-dim benches (default 10)
//   --seed=S     base RNG seed (default 17)
//   --out=DIR    optional directory for CSV dumps
// FromFlags also wires the observability flags (--trace_out=FILE,
// --metrics_out=FILE, --log_level=LEVEL — see docs/OBSERVABILITY.md) so any
// bench can dump a Chrome trace and a metrics-registry JSON at exit.
struct BenchOptions {
  double scale = 0.08;
  uint32_t epochs = 80;
  // Evaluate every `eval_stride` epochs and report each model's best
  // snapshot — models converge at different speeds (HOSR slower than
  // TrustSVD), and the paper tunes every model to its own optimum.
  uint32_t eval_stride = 10;
  uint32_t dim = 10;
  uint64_t seed = 17;
  std::string out_dir;

  static BenchOptions FromFlags(int argc, char** argv);
};

// A generated dataset with its 80/20 split, as used by every experiment.
struct BenchDataset {
  std::string label;  // "Yelp-like" or "Douban-like"
  data::Dataset full;
  data::Split split;
};

// Builds the Yelp-like or Douban-like dataset at the requested scale and
// splits it 80/20 (Sec. 3.1 protocol).
BenchDataset MakeYelpLike(const BenchOptions& options);
BenchDataset MakeDoubanLike(const BenchOptions& options);
std::vector<BenchDataset> MakeBothDatasets(const BenchOptions& options);

// Per-model tuned learning rate (the paper grid-searches lr per model).
float ModelLearningRate(const std::string& model_name);

// Evaluates Recall@20 / MAP@20 over all test users.
eval::EvalResult EvaluateModel(models::RankingModel* model,
                               const BenchDataset& dataset, uint32_t k = 20);

// Trains `model` on the split's training interactions with the paper's
// protocol (RMSprop at the model's tuned rate, batch 512 scaled down for
// small data) for options.epochs through BprTrainer::Train, evaluating
// every options.eval_stride epochs, and returns the best evaluation's
// result (by Recall@20). The model is left with that evaluation's
// parameters.
eval::EvalResult TrainModelBest(models::RankingModel* model,
                                const BenchDataset& dataset,
                                const BenchOptions& options);

// Convenience: MakeModel + TrainModelBest.
struct TrainedModel {
  std::unique_ptr<models::RankingModel> model;
  eval::EvalResult result;
};
TrainedModel TrainAndEvaluate(const std::string& model_name,
                              const BenchDataset& dataset,
                              const BenchOptions& options, uint32_t dim,
                              uint64_t seed_offset = 0);

// Writes `csv` to <out_dir>/<name>.csv when --out was given.
void MaybeWriteCsv(const BenchOptions& options, const std::string& name,
                   const std::string& csv);

// Publishes a headline result as the gauge `bench/<bench>/<metric>` so the
// --metrics_out artifact (bench_metrics/<bench>.json under run_benches.sh)
// carries the bench's numbers in machine-readable form for tools/bench_diff.
// Both name parts are sanitized to the registry's naming rules (lowercased;
// non-[a-z0-9_] become '_'; a leading non-letter gets an 'n' prefix), so
// free-form labels like "Yelp-like" are safe to pass through.
void PublishResultGauge(const std::string& bench, const std::string& metric,
                        double value);

}  // namespace hosr::bench

#endif  // HOSR_BENCH_COMMON_BENCH_UTIL_H_
