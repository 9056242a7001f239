#include "core/model_zoo.h"

#include "models/bpr_mf.h"
#include "models/deepinf.h"
#include "models/if_bpr.h"
#include "models/ncf.h"
#include "models/nscr.h"
#include "models/trust_svd.h"

namespace hosr::core {

const std::vector<std::string>& AllModelNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "BPR", "NCF", "TrustSVD", "NSCR", "IF-BPR+", "DeepInf", "HOSR"};
  return *names;
}

util::StatusOr<std::unique_ptr<models::RankingModel>> MakeModel(
    const std::string& name, const data::Dataset& train,
    const ZooConfig& config) {
  if (name == "BPR") {
    models::BprMf::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(
        new models::BprMf(train.num_users(), train.num_items(), c));
  }
  if (name == "NCF") {
    models::Ncf::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(
        new models::Ncf(train.num_users(), train.num_items(), c));
  }
  if (name == "TrustSVD") {
    models::TrustSvd::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(
        new models::TrustSvd(train, c));
  }
  if (name == "NSCR") {
    models::Nscr::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(new models::Nscr(train, c));
  }
  if (name == "IF-BPR+") {
    models::IfBpr::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(new models::IfBpr(train, c));
  }
  if (name == "DeepInf") {
    models::DeepInf::Config c;
    c.embedding_dim = config.embedding_dim;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(
        new models::DeepInf(train, c));
  }
  if (name == "HOSR") {
    Hosr::Config c;
    c.embedding_dim = config.embedding_dim;
    c.num_layers = config.hosr_layers;
    c.graph_dropout = config.hosr_graph_dropout;
    c.seed = config.seed;
    return std::unique_ptr<models::RankingModel>(new Hosr(train, c));
  }
  return util::Status::InvalidArgument("unknown model: " + name);
}

}  // namespace hosr::core
