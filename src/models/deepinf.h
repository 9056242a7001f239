#ifndef HOSR_MODELS_DEEPINF_H_
#define HOSR_MODELS_DEEPINF_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"

namespace hosr::models {

// DeepInf (Qiu et al.) adapted to social recommendation as in the paper's
// experiments: each user's neighborhood is a *fixed-size sample* drawn by
// random walk with restart (sample size 50, return probability 0.5 in the
// paper), a multi-layer GCN with ReLU activations propagates embeddings
// over the sampled graph, and preference is the dot product between the
// final user embedding and the item embedding.
class DeepInf : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    uint32_t num_layers = 3;          // per the paper's setup
    uint32_t sample_size = 50;        // RWR sample size
    double return_prob = 0.5;         // RWR restart probability
    float init_stddev = 0.1f;
    float dropout = 0.0f;
    uint64_t seed = 7;
  };

  DeepInf(const data::Dataset& train, const Config& config);

  std::string name() const override { return "DeepInf"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // Shares one GCN propagation across positive and negative branches.
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  util::StatusOr<FrozenFactors> ExportFactors() override;

  autograd::ParamStore* params() override { return &params_; }

  // Exposed for tests: number of sampled neighbors of `user`.
  size_t SampledNeighborCount(uint32_t user) const {
    return sampled_adjacency_.row_nnz(user);
  }

 private:
  autograd::Value PropagateUsers(autograd::Tape* tape, bool training);

  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  util::Rng dropout_rng_;
  // Row-normalized operator over the RWR-sampled neighborhoods (self loop
  // included); fixed at construction, as DeepInf samples once per ego.
  graph::CsrMatrix sampled_adjacency_;
  graph::CsrMatrix sampled_adjacency_t_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  std::vector<autograd::Param*> layer_weights_;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_DEEPINF_H_
