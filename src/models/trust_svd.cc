#include "models/trust_svd.h"

#include <cmath>

#include "tensor/ops.h"

namespace hosr::models {

namespace {

// Builds the (n x m) matrix with entry (i, j') = 1/sqrt(|I_i|) for each
// observed interaction — the SVD++ implicit-feedback operator.
graph::CsrMatrix BuildItemFeedbackOperator(
    const data::InteractionMatrix& interactions) {
  std::vector<graph::Triplet> triplets;
  triplets.reserve(interactions.nnz());
  for (uint32_t u = 0; u < interactions.num_users(); ++u) {
    const auto& items = interactions.ItemsOf(u);
    if (items.empty()) continue;
    const float w = 1.0f / std::sqrt(static_cast<float>(items.size()));
    for (const uint32_t j : items) triplets.push_back({u, j, w});
  }
  return graph::CsrMatrix::FromTriplets(interactions.num_users(),
                                        interactions.num_items(),
                                        std::move(triplets));
}

// Builds the (n x n) matrix with entry (i, i') = 1/sqrt(|A_i|) for each
// social edge — TrustSVD's trust operator.
graph::CsrMatrix BuildSocialOperator(const graph::SocialGraph& social) {
  const auto& adj = social.adjacency();
  std::vector<graph::Triplet> triplets;
  triplets.reserve(adj.nnz());
  for (uint32_t i = 0; i < adj.num_rows(); ++i) {
    const size_t degree = adj.row_nnz(i);
    if (degree == 0) continue;
    const float w = 1.0f / std::sqrt(static_cast<float>(degree));
    for (size_t k = adj.row_begin(i); k < adj.row_end(i); ++k) {
      triplets.push_back({i, adj.col_idx()[k], w});
    }
  }
  return graph::CsrMatrix::FromTriplets(adj.num_rows(), adj.num_cols(),
                                        std::move(triplets));
}

}  // namespace

TrustSvd::TrustSvd(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      item_feedback_(BuildItemFeedbackOperator(train.interactions)),
      item_feedback_t_(item_feedback_.Transpose()),
      social_(BuildSocialOperator(train.social)),
      social_t_(social_.Transpose()) {
  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  implicit_item_ = params_.CreateGaussian("implicit_item", num_items_, d,
                                          config.init_stddev, &rng);
  trusted_user_ = params_.CreateGaussian("trusted_user", num_users_, d,
                                         config.init_stddev, &rng);
}

autograd::Value TrustSvd::EffectiveUserEmbedding(autograd::Tape* tape) {
  autograd::Value u = tape->Param(user_emb_);
  autograd::Value q_term =
      tape->SpMM(&item_feedback_, &item_feedback_t_,
                 tape->Param(implicit_item_));
  autograd::Value w_term =
      tape->SpMM(&social_, &social_t_, tape->Param(trusted_user_));
  return tape->Add(tape->Add(u, q_term), w_term);
}

autograd::Value TrustSvd::ScorePairs(autograd::Tape* tape,
                                     const std::vector<uint32_t>& users,
                                     const std::vector<uint32_t>& items,
                                     bool training) {
  (void)training;
  autograd::Value eff = EffectiveUserEmbedding(tape);
  autograd::Value u = tape->GatherRows(eff, users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

autograd::Value TrustSvd::BuildLoss(autograd::Tape* tape,
                                    const data::BprBatch& batch,
                                    util::Rng* rng) {
  (void)rng;
  autograd::Value eff = EffectiveUserEmbedding(tape);
  autograd::Value u = tape->GatherRows(eff, batch.users);
  autograd::Value item_emb = tape->Param(item_emb_);
  autograd::Value pos =
      tape->RowDot(u, tape->GatherRows(item_emb, batch.pos_items));
  autograd::Value neg =
      tape->RowDot(u, tape->GatherRows(item_emb, batch.neg_items));
  autograd::Value margin = tape->Sub(pos, neg);
  return tape->Scale(tape->Mean(tape->LogSigmoid(margin)), -1.0f);
}

tensor::Matrix TrustSvd::ScoreAllItems(const std::vector<uint32_t>& users) {
  autograd::Tape tape;
  const autograd::Value u =
      tape.GatherRows(EffectiveUserEmbedding(&tape), users);
  return tensor::MatMulNT(u.value(), item_emb_->value);
}

util::StatusOr<FrozenFactors> TrustSvd::ExportFactors() {
  autograd::Tape tape;
  FrozenFactors factors;
  factors.user_factors = EffectiveUserEmbedding(&tape).value();
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::models
