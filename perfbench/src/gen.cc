// Input generation, run as its own process before any measured one:
//   perfbench gen-data --out=DIR --scale=S --seed=N
//   perfbench gen-snapshot --data=DIR --out=FILE --model_seed=N
// Snapshots are HOSR at d=64 over the whole dataset.
#include <string>

#include "common.h"
#include "core/model_zoo.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "serve/snapshot.h"
#include "subcommands.h"

namespace perfbench {

int GenData(const hosr::util::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) Die("gen-data needs --out");
  auto config = hosr::data::SyntheticConfig::YelpLike(
      flags.GetDouble("scale", 0.2));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  auto dataset = hosr::data::GenerateSynthetic(config);
  if (!dataset.ok()) Die(dataset.status().ToString());
  if (auto status = hosr::data::SaveDataset(*dataset, out); !status.ok()) {
    Die(status.ToString());
  }
  return 0;
}

int GenSnapshot(const hosr::util::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  const hosr::data::Dataset dataset =
      LoadDatasetOrDie(flags.GetString("data", ""));
  hosr::core::ZooConfig zoo;
  zoo.embedding_dim = 64;
  zoo.seed = static_cast<uint64_t>(flags.GetInt("model_seed", 7));
  auto model = hosr::core::MakeModel("HOSR", dataset, zoo);
  if (!model.ok()) Die(model.status().ToString());
  auto snapshot = hosr::serve::BuildSnapshot(**model);
  if (!snapshot.ok()) Die(snapshot.status().ToString());
  if (auto status = hosr::serve::SaveSnapshot(*snapshot, out); !status.ok()) {
    Die(status.ToString());
  }
  return 0;
}

}  // namespace perfbench
