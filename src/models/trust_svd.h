#ifndef HOSR_MODELS_TRUST_SVD_H_
#define HOSR_MODELS_TRUST_SVD_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"

namespace hosr::models {

// TrustSVD (Guo et al.), optimized with the BPR loss as in the paper's
// experiments (Eq. 13):
//   y_ij = (u_i + |I_i|^{-1/2} sum_{j' in I_i} q_{j'}
//               + |A_i|^{-1/2} sum_{i' in A_i} w_{i'}) . v_j
// where Q holds item-implicit-feedback vectors and W holds the
// trusted-user vectors. First-order social only — the explicit-factoring
// baseline that HOSR generalizes to high orders.
class TrustSvd : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    float init_stddev = 0.1f;
    uint64_t seed = 7;
  };

  // Uses `train.interactions` for I_i and `train.social` for A_i.
  TrustSvd(const data::Dataset& train, const Config& config);

  std::string name() const override { return "TrustSVD"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // Shares one propagation of the effective user embedding across the
  // positive and negative branches of the BPR loss.
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  util::StatusOr<FrozenFactors> ExportFactors() override;

  autograd::ParamStore* params() override { return &params_; }

 private:
  // Effective user embedding of every user on the tape: the one forward
  // behind training, scoring and export.
  autograd::Value EffectiveUserEmbedding(autograd::Tape* tape);

  uint32_t num_users_;
  uint32_t num_items_;
  // (n x m) with row i scaled by 1/sqrt(|I_i|); and its transpose.
  graph::CsrMatrix item_feedback_;
  graph::CsrMatrix item_feedback_t_;
  // (n x n) with row i scaled by 1/sqrt(|A_i|); and its transpose.
  graph::CsrMatrix social_;
  graph::CsrMatrix social_t_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  autograd::Param* implicit_item_;  // Q
  autograd::Param* trusted_user_;   // W
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_TRUST_SVD_H_
