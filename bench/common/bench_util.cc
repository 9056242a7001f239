#include "common/bench_util.h"

#include <algorithm>
#include <fstream>

#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/logging.h"

namespace hosr::bench {

BenchOptions BenchOptions::FromFlags(int argc, char** argv) {
  const util::Flags flags = util::Flags::Parse(argc, argv);
  // Every bench accepts --trace_out / --metrics_out / --log_level; the
  // artifacts are dumped automatically when the bench exits.
  obs::InitFromFlags(flags);
  BenchOptions options;
  options.scale = flags.GetDouble("scale", options.scale);
  options.epochs =
      static_cast<uint32_t>(flags.GetInt("epochs", options.epochs));
  options.eval_stride =
      static_cast<uint32_t>(flags.GetInt("eval_stride", options.eval_stride));
  options.dim = static_cast<uint32_t>(flags.GetInt("dim", options.dim));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  options.out_dir = flags.GetString("out", "");
  return options;
}

namespace {

BenchDataset MakeDataset(data::SyntheticConfig config, std::string label,
                         const BenchOptions& options) {
  config.seed ^= options.seed * 0x9e3779b97f4a7c15ULL;
  auto dataset = data::GenerateSynthetic(config);
  HOSR_CHECK(dataset.ok()) << dataset.status().ToString();
  util::Rng split_rng(options.seed ^ 0x243f6a8885a308d3ULL);
  auto split = data::SplitDataset(*dataset, 0.2, &split_rng);
  HOSR_CHECK(split.ok()) << split.status().ToString();
  BenchDataset result;
  result.label = std::move(label);
  result.full = std::move(dataset).value();
  result.split = std::move(split).value();
  return result;
}

}  // namespace

BenchDataset MakeYelpLike(const BenchOptions& options) {
  return MakeDataset(data::SyntheticConfig::YelpLike(options.scale),
                     "Yelp-like", options);
}

BenchDataset MakeDoubanLike(const BenchOptions& options) {
  return MakeDataset(data::SyntheticConfig::DoubanLike(options.scale),
                     "Douban-like", options);
}

std::vector<BenchDataset> MakeBothDatasets(const BenchOptions& options) {
  std::vector<BenchDataset> datasets;
  datasets.push_back(MakeDoubanLike(options));
  datasets.push_back(MakeYelpLike(options));
  return datasets;
}

float ModelLearningRate(const std::string& model_name) {
  // Per-model tuned rates, mirroring the paper's per-model grid search over
  // {1e-4, 5e-4, 1e-3, 5e-3}: deep propagation models want smaller steps.
  if (model_name == "TrustSVD" || model_name == "DeepInf") return 0.001f;
  if (model_name == "HOSR") return 0.001f;
  return 0.002f;
}

eval::EvalResult EvaluateModel(models::RankingModel* model,
                               const BenchDataset& dataset, uint32_t k) {
  eval::Evaluator evaluator(&dataset.split.train.interactions,
                            &dataset.split.test, k);
  return evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
    return model->ScoreAllItems(users);
  });
}

eval::EvalResult TrainModelBest(models::RankingModel* model,
                                const BenchDataset& dataset,
                                const BenchOptions& options) {
  models::TrainConfig config;
  config.epochs = options.epochs;
  // The paper fixes batch size 512; shrink proportionally for small scales
  // so one epoch still makes ~|Y|/batch steps.
  config.batch_size = static_cast<uint32_t>(std::clamp<size_t>(
      dataset.split.train.interactions.nnz() / 40, 64, 512));
  config.learning_rate = ModelLearningRate(model->name());
  config.weight_decay = 1e-5f;
  config.optimizer = "rmsprop";
  config.seed = options.seed;
  config.eval_every = std::max<uint32_t>(1, options.eval_stride);
  models::BprTrainer trainer(model, &dataset.split.train.interactions,
                             config);
  auto trained = trainer.Train([&](models::RankingModel* m) {
    return EvaluateModel(m, dataset);
  });
  HOSR_CHECK(trained.ok()) << trained.status();
  return trained->evaluations[trained->best].result;
}

TrainedModel TrainAndEvaluate(const std::string& model_name,
                              const BenchDataset& dataset,
                              const BenchOptions& options, uint32_t dim,
                              uint64_t seed_offset) {
  core::ZooConfig zoo;
  zoo.embedding_dim = dim;
  zoo.seed = options.seed + seed_offset;
  auto model = core::MakeModel(model_name, dataset.split.train, zoo);
  HOSR_CHECK(model.ok()) << model.status().ToString();
  TrainedModel trained;
  trained.model = std::move(model).value();
  trained.result = TrainModelBest(trained.model.get(), dataset, options);
  return trained;
}

namespace {

std::string SanitizeMetricSegment(const std::string& raw) {
  std::string segment;
  segment.reserve(raw.size());
  for (char c : raw) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    segment.push_back(ok ? c : '_');
  }
  if (segment.empty() || segment[0] < 'a' || segment[0] > 'z') {
    segment.insert(segment.begin(), 'n');
  }
  return segment;
}

}  // namespace

void PublishResultGauge(const std::string& bench, const std::string& metric,
                        double value) {
  // Dynamic names can't use the HOSR_GAUGE macro (it caches per call site);
  // resolve through the registry directly.
  obs::Registry::Global()
      .GetGauge("bench/" + SanitizeMetricSegment(bench) + "/" +
                SanitizeMetricSegment(metric))
      ->Set(value);
}

void MaybeWriteCsv(const BenchOptions& options, const std::string& name,
                   const std::string& csv) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/" + name + ".csv";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    HOSR_LOG(Warning) << "cannot write " << path;
    return;
  }
  out << csv;
  HOSR_LOG(Info) << "wrote " << path;
}

}  // namespace hosr::bench
