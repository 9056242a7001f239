#ifndef HOSR_CORE_HOSR_JOINT_H_
#define HOSR_CORE_HOSR_JOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/hosr.h"
#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"

namespace hosr::core {

// HOSR-Joint — the paper's first future-work direction (Sec. 5):
// "jointly propagate user and item embedding".
//
// Instead of propagating user embeddings over the social graph only, this
// variant propagates a single embedding table over the *unified* graph
//
//        [ A_social   Y ]
//    G = [ Y^T        0 ]        (users first, then items)
//
// normalized as in Eq. 6 (D^{-1/2}(G + I)D^{-1/2}). Each layer therefore
// mixes three signals at once: social influence (user-user edges),
// collaborative filtering (user-item edges), and, at higher orders, the
// co-consumption and friend-of-friend structure. Layer outputs are
// aggregated with the same attention network as HOSR; prediction is the
// inner product of the final user and item representations.
class HosrJoint : public models::RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    uint32_t num_layers = 3;
    LayerAggregation aggregation = LayerAggregation::kAttention;
    Activation activation = Activation::kTanh;
    float embedding_dropout = 0.0f;
    // Drops social and interaction edges independently, per epoch.
    float graph_dropout = 0.2f;
    float init_stddev = 0.05f;
    uint64_t seed = 7;

    util::Status Validate() const;
  };

  HosrJoint(const data::Dataset& train, const Config& config);

  std::string name() const override { return "HOSR-Joint"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  void OnEpochBegin(uint32_t epoch, util::Rng* rng) override;

  autograd::ParamStore* params() override { return &params_; }

  // Final (aggregated) embeddings of all n + m nodes, inference mode.
  tensor::Matrix FinalNodeEmbeddings();

 private:
  // Builds the normalized unified operator from (possibly thinned) social
  // and interaction edge sets.
  graph::CsrMatrix BuildJointLaplacian(
      const std::vector<std::pair<uint32_t, uint32_t>>& social_edges,
      const std::vector<data::Interaction>& interactions) const;

  // Propagation (the last layer on `rows` only), then the aggregation on
  // `rows` (sorted unique node ids): (rows.size() x d).
  autograd::Value PropagateAndAggregate(autograd::Tape* tape,
                                        const std::vector<uint32_t>& rows,
                                        bool training);
  // Final embeddings of `users` and of `items` (both checked; either may
  // repeat), row for row; the aggregation runs once per unique node.
  std::pair<autograd::Value, autograd::Value> UserAndItemRows(
      autograd::Tape* tape, const std::vector<uint32_t>& users,
      const std::vector<uint32_t>& items, bool training);
  // Node ids of `items` (checked): items follow the users.
  std::vector<uint32_t> ItemNodes(const std::vector<uint32_t>& items) const;

  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  util::Rng dropout_rng_;
  std::vector<std::pair<uint32_t, uint32_t>> social_edges_;
  std::vector<data::Interaction> interaction_edges_;
  graph::CsrMatrix base_laplacian_;    // full graph (inference)
  graph::CsrMatrix active_laplacian_;  // epoch's thinned graph (training)
  autograd::ParamStore params_;
  autograd::Param* node_emb_;  // (n + m) x d, users then items
  std::vector<autograd::Param*> layer_weights_;
  LayerAttention attention_;
};

}  // namespace hosr::core

#endif  // HOSR_CORE_HOSR_JOINT_H_
