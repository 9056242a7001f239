#ifndef HOSR_MODELS_BPR_MF_H_
#define HOSR_MODELS_BPR_MF_H_

#include <string>
#include <vector>

#include "models/model.h"

namespace hosr::models {

// Matrix factorization trained with the BPR loss (Rendle et al.) — the
// paper's non-social baseline. Score: y_ij = u_i . v_j.
class BprMf : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    float init_stddev = 0.1f;
    uint64_t seed = 7;
  };

  BprMf(uint32_t num_users, uint32_t num_items, const Config& config);

  std::string name() const override { return "BPR"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  util::StatusOr<FrozenFactors> ExportFactors() override;

  autograd::ParamStore* params() override { return &params_; }

  const tensor::Matrix& user_embeddings() const { return user_emb_->value; }
  const tensor::Matrix& item_embeddings() const { return item_emb_->value; }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_BPR_MF_H_
