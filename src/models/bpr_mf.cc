#include "models/bpr_mf.h"

#include "tensor/ops.h"

namespace hosr::models {

BprMf::BprMf(uint32_t num_users, uint32_t num_items, const Config& config)
    : num_users_(num_users), num_items_(num_items) {
  util::Rng rng(config.seed);
  user_emb_ = params_.CreateGaussian("user_emb", num_users,
                                     config.embedding_dim,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items,
                                     config.embedding_dim,
                                     config.init_stddev, &rng);
}

autograd::Value BprMf::ScorePairs(autograd::Tape* tape,
                                  const std::vector<uint32_t>& users,
                                  const std::vector<uint32_t>& items,
                                  bool training) {
  (void)training;
  autograd::Value u = tape->GatherRows(tape->Param(user_emb_), users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

tensor::Matrix BprMf::ScoreAllItems(const std::vector<uint32_t>& users) {
  return tensor::MatMulNT(tensor::GatherRows(user_emb_->value, users),
                          item_emb_->value);
}

util::StatusOr<FrozenFactors> BprMf::ExportFactors() {
  FrozenFactors factors;
  factors.user_factors = user_emb_->value;
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::models
