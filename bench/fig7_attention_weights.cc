// Reproduces Fig. 7: the learned attention weight of each GCN layer as a
// function of (a) the user's number of social neighbors and (b) the user's
// number of interactions, for HOSR-3 at its best evaluation (as Table 3
// reports every model).
//
// Reproduction target (shape): the first layer's weight is small; for
// socially sparse users the deepest layer dominates; as degree grows the
// deep-layer weight falls and mid-layer weight rises.
#include <array>
#include <cstdio>

#include "common/bench_util.h"
#include "core/hosr.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

// Bucket boundaries (inclusive lower edges).
std::string BucketLabel(const std::vector<uint32_t>& edges, size_t b) {
  if (b + 1 < edges.size()) {
    return hosr::util::StrFormat("[%u, %u)", edges[b], edges[b + 1]);
  }
  return hosr::util::StrFormat(">=%u", edges[b]);
}

size_t BucketOf(const std::vector<uint32_t>& edges, uint32_t value) {
  size_t b = 0;
  while (b + 1 < edges.size() && value >= edges[b + 1]) ++b;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hosr;
  const bench::BenchOptions options =
      bench::BenchOptions::FromFlags(argc, argv);

  std::printf("=== Fig. 7: attention weight per layer vs user degree / "
              "interactions ===\n");
  std::printf("(trained HOSR-3, d=%u, %u epochs)\n\n", options.dim,
              options.epochs);

  const auto datasets = bench::MakeBothDatasets(options);
  util::Table table({"Dataset", "Grouping", "Bucket", "#Users", "w(layer1)",
                     "w(layer2)", "w(layer3)"});

  for (const auto& dataset : datasets) {
    core::Hosr::Config config;
    config.embedding_dim = options.dim;
    config.num_layers = 3;
    config.graph_dropout = 0.2f;
    config.seed = options.seed;
    core::Hosr model(dataset.split.train, config);
    bench::TrainModelBest(&model, dataset, options);
    const tensor::Matrix weights = model.AttentionWeights();

    for (size_t l = 0; l < 3; ++l) {
      double sum = 0;
      for (uint32_t u = 0; u < dataset.full.num_users(); ++u) {
        sum += weights(u, l);
      }
      bench::PublishResultGauge(
          "fig7_attention_weights",
          util::StrFormat("%s_mean_layer%zu_weight", dataset.label.c_str(),
                          l + 1),
          sum / dataset.full.num_users());
    }

    struct Grouping {
      const char* name;
      std::vector<uint32_t> edges;
      std::vector<uint32_t> values;  // per user
    };
    std::vector<Grouping> groupings(2);
    groupings[0].name = "#Neighbors";
    groupings[0].edges = {0, 4, 8, 16, 32, 64};
    groupings[1].name = "#Interactions";
    groupings[1].edges = {0, 8, 16, 32, 64, 128};
    for (uint32_t u = 0; u < dataset.full.num_users(); ++u) {
      groupings[0].values.push_back(dataset.full.social.Degree(u));
      groupings[1].values.push_back(static_cast<uint32_t>(
          dataset.split.train.interactions.ItemsOf(u).size()));
    }

    for (const auto& grouping : groupings) {
      std::vector<std::array<double, 3>> sums(grouping.edges.size(),
                                              {0, 0, 0});
      std::vector<size_t> counts(grouping.edges.size(), 0);
      for (uint32_t u = 0; u < dataset.full.num_users(); ++u) {
        const size_t b = BucketOf(grouping.edges, grouping.values[u]);
        for (size_t l = 0; l < 3; ++l) sums[b][l] += weights(u, l);
        ++counts[b];
      }
      for (size_t b = 0; b < grouping.edges.size(); ++b) {
        if (counts[b] == 0) continue;
        table.AddRow({dataset.label, grouping.name,
                      BucketLabel(grouping.edges, b),
                      util::StrFormat("%zu", counts[b]),
                      util::Table::Cell(sums[b][0] / counts[b]),
                      util::Table::Cell(sums[b][1] / counts[b]),
                      util::Table::Cell(sums[b][2] / counts[b])});
      }
    }
  }

  std::printf("%s\n", table.ToText().c_str());
  std::printf("Paper shape: layer-1 weight smallest everywhere; deepest "
              "layer's weight highest for sparse users and decreasing with "
              "degree/interactions.\n");
  bench::MaybeWriteCsv(options, "fig7_attention_weights", table.ToCsv());
  return 0;
}
