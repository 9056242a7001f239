#include "models/deepinf.h"

#include "graph/sampling.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::models {

namespace {

// Fixed-size RWR sample per user, assembled into a row-normalized sparse
// operator with self-loops: row u averages {u} union sample(u).
graph::CsrMatrix BuildSampledOperator(const graph::SocialGraph& social,
                                      uint32_t sample_size,
                                      double return_prob, uint64_t seed) {
  std::vector<graph::Triplet> triplets;
  util::Rng rng(seed);
  for (uint32_t u = 0; u < social.num_users(); ++u) {
    util::Rng walk_rng = rng.Fork(u + 1);
    const auto sample = graph::RandomWalkWithRestart(
        social, u, return_prob, sample_size, &walk_rng);
    const float w = 1.0f / static_cast<float>(sample.size() + 1);
    triplets.push_back({u, u, w});
    for (const uint32_t v : sample) triplets.push_back({u, v, w});
  }
  return graph::CsrMatrix::FromTriplets(social.num_users(),
                                        social.num_users(),
                                        std::move(triplets));
}

}  // namespace

DeepInf::DeepInf(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      dropout_rng_(config.seed ^ 0xe7037ed1a0b428dbULL),
      sampled_adjacency_(BuildSampledOperator(train.social,
                                              config.sample_size,
                                              config.return_prob,
                                              config.seed ^ 0x2545f4914f6cdd1dULL)),
      sampled_adjacency_t_(sampled_adjacency_.Transpose()) {
  HOSR_CHECK(config.num_layers >= 1);
  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
    layer_weights_.push_back(params_.CreateXavier(
        util::StrFormat("deepinf_w%u", layer), d, d, &rng));
  }
}

autograd::Value DeepInf::PropagateUsers(autograd::Tape* tape, bool training) {
  autograd::Value h = tape->Param(user_emb_);
  for (size_t layer = 0; layer < layer_weights_.size(); ++layer) {
    h = tape->SpMM(&sampled_adjacency_, &sampled_adjacency_t_, h);
    h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    h = tape->Relu(h);
    h = tape->Dropout(h, config_.dropout, training, &dropout_rng_);
  }
  return h;
}

autograd::Value DeepInf::ScorePairs(autograd::Tape* tape,
                                    const std::vector<uint32_t>& users,
                                    const std::vector<uint32_t>& items,
                                    bool training) {
  autograd::Value h = PropagateUsers(tape, training);
  autograd::Value u = tape->GatherRows(h, users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

autograd::Value DeepInf::BuildLoss(autograd::Tape* tape,
                                   const data::BprBatch& batch,
                                   util::Rng* rng) {
  (void)rng;
  autograd::Value h = PropagateUsers(tape, /*training=*/true);
  autograd::Value u = tape->GatherRows(h, batch.users);
  autograd::Value item_param = tape->Param(item_emb_);
  autograd::Value pos =
      tape->RowDot(u, tape->GatherRows(item_param, batch.pos_items));
  autograd::Value neg =
      tape->RowDot(u, tape->GatherRows(item_param, batch.neg_items));
  autograd::Value margin = tape->Sub(pos, neg);
  return tape->Scale(tape->Mean(tape->LogSigmoid(margin)), -1.0f);
}

tensor::Matrix DeepInf::ScoreAllItems(const std::vector<uint32_t>& users) {
  autograd::Tape tape;
  const autograd::Value u =
      tape.GatherRows(PropagateUsers(&tape, /*training=*/false), users);
  return tensor::MatMulNT(u.value(), item_emb_->value);
}

util::StatusOr<FrozenFactors> DeepInf::ExportFactors() {
  autograd::Tape tape;
  FrozenFactors factors;
  factors.user_factors = PropagateUsers(&tape, /*training=*/false).value();
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::models
