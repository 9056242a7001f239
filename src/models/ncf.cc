#include "models/ncf.h"

#include "tensor/ops.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hosr::models {

Ncf::Ncf(uint32_t num_users, uint32_t num_items, const Config& config)
    : num_users_(num_users),
      num_items_(num_items),
      config_(config),
      dropout_rng_(config.seed ^ 0xd1b54a32d192ed03ULL) {
  HOSR_CHECK(config.num_hidden_layers >= 1);
  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  gmf_user_ = params_.CreateGaussian("gmf_user", num_users, d,
                                     config.init_stddev, &rng);
  gmf_item_ = params_.CreateGaussian("gmf_item", num_items, d,
                                     config.init_stddev, &rng);
  gmf_out_ = params_.CreateXavier("gmf_out", d, 1, &rng);
  mlp_user_ = params_.CreateGaussian("mlp_user", num_users, d,
                                     config.init_stddev, &rng);
  mlp_item_ = params_.CreateGaussian("mlp_item", num_items, d,
                                     config.init_stddev, &rng);
  uint32_t in_dim = 2 * d;
  for (uint32_t layer = 0; layer < config.num_hidden_layers; ++layer) {
    mlp_weights_.push_back(params_.CreateXavier(
        util::StrFormat("mlp_w%u", layer), in_dim, d, &rng));
    mlp_biases_.push_back(
        params_.Create(util::StrFormat("mlp_b%u", layer), 1, d));
    in_dim = d;
  }
  mlp_out_ = params_.CreateXavier("mlp_out", d, 1, &rng);
}

autograd::Value Ncf::ScorePairs(autograd::Tape* tape,
                                const std::vector<uint32_t>& users,
                                const std::vector<uint32_t>& items,
                                bool training) {
  // GMF branch.
  autograd::Value gu = tape->GatherRows(tape->Param(gmf_user_), users);
  autograd::Value gv = tape->GatherRows(tape->Param(gmf_item_), items);
  autograd::Value gmf_score =
      tape->MatMul(tape->Hadamard(gu, gv), tape->Param(gmf_out_));

  // MLP branch.
  autograd::Value mu = tape->GatherRows(tape->Param(mlp_user_), users);
  autograd::Value mv = tape->GatherRows(tape->Param(mlp_item_), items);
  autograd::Value h = tape->ConcatCols(mu, mv);
  h = tape->Dropout(h, config_.dropout, training, &dropout_rng_);
  for (size_t layer = 0; layer < mlp_weights_.size(); ++layer) {
    h = tape->MatMul(h, tape->Param(mlp_weights_[layer]));
    h = tape->AddRowBroadcast(h, tape->Param(mlp_biases_[layer]));
    h = tape->Relu(h);
  }
  autograd::Value mlp_score = tape->MatMul(h, tape->Param(mlp_out_));

  return tape->Add(gmf_score, mlp_score);
}

tensor::Matrix Ncf::ScoreAllItems(const std::vector<uint32_t>& users) {
  using tensor::Matrix;
  const uint32_t d = config_.embedding_dim;

  // GMF contribution: (U_g h) per user against all items reduces to a
  // weighted inner product; compute as (U_g diag(h)) V_g^T.
  Matrix gmf_u = tensor::GatherRows(gmf_user_->value, users);
  for (size_t r = 0; r < gmf_u.rows(); ++r) {
    float* row = gmf_u.row(r);
    for (uint32_t c = 0; c < d; ++c) row[c] *= gmf_out_->value(c, 0);
  }
  Matrix scores = tensor::MatMulNT(gmf_u, gmf_item_->value);

  // MLP contribution: per user, run all items through the MLP.
  util::ParallelFor(
      0, users.size(),
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          const float* user_row = mlp_user_->value.row(users[b]);
          Matrix h(num_items_, 2 * d);
          for (uint32_t j = 0; j < num_items_; ++j) {
            float* hr = h.row(j);
            std::copy(user_row, user_row + d, hr);
            const float* item_row = mlp_item_->value.row(j);
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
              acc += hr[c] * mlp_out_->value(c, 0);
            }
            out_row[j] += acc;
          }
        }
      },
      /*min_chunk=*/4);
  return scores;
}

}  // namespace hosr::models
