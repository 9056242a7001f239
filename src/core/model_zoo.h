#ifndef HOSR_CORE_MODEL_ZOO_H_
#define HOSR_CORE_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hosr.h"
#include "data/dataset.h"
#include "models/model.h"
#include "util/statusor.h"

namespace hosr::core {

// Uniform construction of HOSR and every baseline, used by benches and
// examples that sweep over models.
struct ZooConfig {
  uint32_t embedding_dim = 10;
  uint64_t seed = 7;
  // HOSR-specific knobs forwarded to Hosr::Config.
  uint32_t hosr_layers = 3;
  float hosr_graph_dropout = 0.2f;
};

// Names accepted by MakeModel, in the paper's Table 3 column order.
const std::vector<std::string>& AllModelNames();

// Builds a model by name: "BPR", "NCF", "TrustSVD", "NSCR", "IF-BPR+",
// "DeepInf", or "HOSR". Returns InvalidArgument for unknown names.
util::StatusOr<std::unique_ptr<models::RankingModel>> MakeModel(
    const std::string& name, const data::Dataset& train,
    const ZooConfig& config);

}  // namespace hosr::core

#endif  // HOSR_CORE_MODEL_ZOO_H_
