#include "models/nscr.h"

#include "graph/spmm.h"
#include "kernels/kernels.h"
#include "tensor/ops.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hosr::models {

namespace {

// Row-stochastic social operator: row i averages over A_i.
graph::CsrMatrix BuildNeighborhoodMean(const graph::SocialGraph& social) {
  const auto& adj = social.adjacency();
  std::vector<graph::Triplet> triplets;
  triplets.reserve(adj.nnz());
  for (uint32_t i = 0; i < adj.num_rows(); ++i) {
    const size_t degree = adj.row_nnz(i);
    if (degree == 0) continue;
    const float w = 1.0f / static_cast<float>(degree);
    for (size_t k = adj.row_begin(i); k < adj.row_end(i); ++k) {
      triplets.push_back({i, adj.col_idx()[k], w});
    }
  }
  return graph::CsrMatrix::FromTriplets(adj.num_rows(), adj.num_cols(),
                                        std::move(triplets));
}

}  // namespace

Nscr::Nscr(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      dropout_rng_(config.seed ^ 0xa0761d6478bd642fULL),
      social_(train.social),
      neighborhood_mean_(BuildNeighborhoodMean(train.social)),
      neighborhood_mean_t_(neighborhood_mean_.Transpose()) {
  HOSR_CHECK(config.num_hidden_layers >= 1);
  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  uint32_t in_dim = 2 * d;
  for (uint32_t layer = 0; layer < config.num_hidden_layers; ++layer) {
    mlp_weights_.push_back(params_.CreateXavier(
        util::StrFormat("nscr_w%u", layer), in_dim, d, &rng));
    mlp_biases_.push_back(
        params_.Create(util::StrFormat("nscr_b%u", layer), 1, d));
    in_dim = d;
  }
  out_weight_ = params_.CreateXavier("nscr_out", d, 1, &rng);
}

autograd::Value Nscr::ScorePairs(autograd::Tape* tape,
                                 const std::vector<uint32_t>& users,
                                 const std::vector<uint32_t>& items,
                                 bool training) {
  autograd::Value u = tape->GatherRows(tape->Param(user_emb_), users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  autograd::Value h = tape->ConcatCols(u, v);
  h = tape->Dropout(h, config_.dropout, training, &dropout_rng_);
  for (size_t layer = 0; layer < mlp_weights_.size(); ++layer) {
    h = tape->MatMul(h, tape->Param(mlp_weights_[layer]));
    h = tape->AddRowBroadcast(h, tape->Param(mlp_biases_[layer]));
    h = tape->Relu(h);
  }
  return tape->MatMul(h, tape->Param(out_weight_));
}

autograd::Value Nscr::BuildLoss(autograd::Tape* tape,
                                const data::BprBatch& batch, util::Rng* rng) {
  autograd::Value pos =
      ScorePairs(tape, batch.users, batch.pos_items, /*training=*/true);
  autograd::Value neg =
      ScorePairs(tape, batch.users, batch.neg_items, /*training=*/true);
  autograd::Value margin = tape->Sub(pos, neg);
  autograd::Value loss =
      tape->Scale(tape->Mean(tape->LogSigmoid(margin)), -1.0f);

  autograd::Value user_param = tape->Param(user_emb_);
  autograd::Value batch_u = tape->GatherRows(user_param, batch.users);

  // Smoothness: pull each batch user toward one uniformly sampled friend.
  if (config_.smoothness_weight > 0.0f) {
    std::vector<uint32_t> sampled_friends;
    sampled_friends.reserve(batch.users.size());
    for (const uint32_t u : batch.users) {
      const uint32_t degree = social_.Degree(u);
      if (degree == 0) {
        sampled_friends.push_back(u);  // no-op pair
        continue;
      }
      const auto& adj = social_.adjacency();
      const size_t offset =
          adj.row_begin(u) + static_cast<size_t>(rng->UniformInt(degree));
      sampled_friends.push_back(adj.col_idx()[offset]);
    }
    autograd::Value friend_u = tape->GatherRows(user_param, sampled_friends);
    autograd::Value diff = tape->Sub(batch_u, friend_u);
    autograd::Value penalty = tape->Mean(tape->RowDot(diff, diff));
    loss = tape->Add(loss, tape->Scale(penalty, config_.smoothness_weight));
  }

  // Fitting: pull each batch user toward her neighborhood mean.
  if (config_.fitting_weight > 0.0f) {
    autograd::Value mean_emb =
        tape->SpMM(&neighborhood_mean_, &neighborhood_mean_t_, user_param);
    autograd::Value batch_mean = tape->GatherRows(mean_emb, batch.users);
    autograd::Value diff = tape->Sub(batch_u, batch_mean);
    autograd::Value penalty = tape->Mean(tape->RowDot(diff, diff));
    loss = tape->Add(loss, tape->Scale(penalty, config_.fitting_weight));
  }
  return loss;
}

tensor::Matrix Nscr::ScoreAllItems(const std::vector<uint32_t>& users) {
  using tensor::Matrix;
  const uint32_t d = config_.embedding_dim;
  Matrix scores(users.size(), num_items_);
  // A user is costed by the MLP's multiply-adds over every item, as in
  // Ncf::ScoreAllItems.
  double macs_per_item = 0.0;
  for (const autograd::Param* w : mlp_weights_) {
    macs_per_item += static_cast<double>(w->value.size());
  }
  util::ParallelFor(
      0, users.size(),
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          const float* user_row = user_emb_->value.row(users[b]);
          Matrix h(num_items_, 2 * d);
          for (uint32_t j = 0; j < num_items_; ++j) {
            float* hr = h.row(j);
            std::copy(user_row, user_row + d, hr);
            const float* item_row = item_emb_->value.row(j);
            std::copy(item_row, item_row + d, hr + d);
          }
          for (size_t layer = 0; layer < mlp_weights_.size(); ++layer) {
            Matrix next(h.rows(), mlp_weights_[layer]->value.cols());
            tensor::Gemm(h, false, mlp_weights_[layer]->value, false, 1.0f,
                         0.0f, &next);
            const float* bias = mlp_biases_[layer]->value.data();
            for (size_t r = 0; r < next.rows(); ++r) {
              float* nr = next.row(r);
              for (size_t c = 0; c < next.cols(); ++c) {
                nr[c] = std::max(0.0f, nr[c] + bias[c]);
              }
            }
            h = std::move(next);
          }
          float* out_row = scores.row(b);
          for (uint32_t j = 0; j < num_items_; ++j) {
            const float* hr = h.row(j);
            float acc = 0.0f;
            for (uint32_t c = 0; c < d; ++c) {
              acc += hr[c] * out_weight_->value(c, 0);
            }
            out_row[j] = acc;
          }
        }
      },
      util::GrainFor(kernels::Active().gemm_mac_ns * macs_per_item *
                     num_items_));
  return scores;
}

}  // namespace hosr::models
