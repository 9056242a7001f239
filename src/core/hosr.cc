#include "core/hosr.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "graph/laplacian.h"
#include "graph/sampling.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

graph::CsrMatrix BuildItemTermOperator(
    const data::InteractionMatrix& interactions, ImplicitDecay decay) {
  // |A_j|: number of users that interacted with item j (for kSqrtBoth).
  std::vector<uint32_t> item_degree(interactions.num_items(), 0);
  if (decay == ImplicitDecay::kSqrtBoth) {
    for (uint32_t u = 0; u < interactions.num_users(); ++u) {
      for (const uint32_t j : interactions.ItemsOf(u)) ++item_degree[j];
    }
  }
  std::vector<graph::Triplet> triplets;
  triplets.reserve(interactions.nnz());
  for (uint32_t u = 0; u < interactions.num_users(); ++u) {
    const auto& items = interactions.ItemsOf(u);
    if (items.empty()) continue;
    const float user_decay =
        1.0f / std::sqrt(static_cast<float>(items.size()));
    for (const uint32_t j : items) {
      float w = user_decay;
      if (decay == ImplicitDecay::kSqrtBoth) {
        w /= std::sqrt(static_cast<float>(std::max<uint32_t>(1, item_degree[j])));
      }
      triplets.push_back({u, j, w});
    }
  }
  return graph::CsrMatrix::FromTriplets(interactions.num_users(),
                                        interactions.num_items(),
                                        std::move(triplets));
}

LayerAttention LayerAttention::Create(LayerAggregation aggregation,
                                      const std::string& prefix, uint32_t d,
                                      autograd::ParamStore* params,
                                      util::Rng* rng) {
  LayerAttention attention;
  if (aggregation != LayerAggregation::kAttention) return attention;
  attention.proj_user = params->CreateXavier(prefix + "attn_p_u", d, d, rng);
  attention.proj_output =
      params->CreateXavier(prefix + "attn_p_o", d, d, rng);
  attention.vector = params->CreateXavier(prefix + "attn_h", d, 1, rng);
  return attention;
}

std::vector<uint32_t> UniqueRows(IdLists id_lists) {
  std::vector<uint32_t> rows;
  for (const std::vector<uint32_t>& ids : id_lists) {
    rows.insert(rows.end(), ids.begin(), ids.end());
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

std::vector<uint32_t> AllRows(uint32_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

std::vector<uint32_t> LocalRows(const std::vector<uint32_t>& rows,
                                const std::vector<uint32_t>& ids) {
  std::vector<uint32_t> local;
  local.reserve(ids.size());
  for (const uint32_t id : ids) {
    const auto it = std::lower_bound(rows.begin(), rows.end(), id);
    HOSR_CHECK(it != rows.end() && *it == id) << "row " << id;
    local.push_back(static_cast<uint32_t>(it - rows.begin()));
  }
  return local;
}

// Every op after the gathers is row-wise, and the rows stay ascending, so
// each kept row is computed exactly as on the full table, and each weight
// gradient folds the same nonzero terms in the same order.
Value AggregateLayerRows(autograd::Tape* tape, LayerAggregation aggregation,
                         const LayerAttention& attention, Value u0,
                         const std::vector<Value>& layers,
                         const std::vector<uint32_t>& rows, Value* weights) {
  // Layer l's rows: gathered from a full table, except the last layer's.
  const auto layer_rows_of = [&](size_t l) {
    return l + 1 == layers.size() ? layers[l]
                                  : tape->GatherRows(layers[l], rows);
  };
  switch (aggregation) {
    case LayerAggregation::kLast:
      return layers.back();
    case LayerAggregation::kAverage: {
      Value acc = layer_rows_of(0);
      for (size_t l = 1; l < layers.size(); ++l) {
        acc = tape->Add(acc, layer_rows_of(l));
      }
      return tape->Scale(acc, 1.0f / static_cast<float>(layers.size()));
    }
    case LayerAggregation::kAttention: {
      if (layers.size() == 1) return layers.back();
      HOSR_TRACE_SPAN("hosr/attention_aggregate");
      // Eq. 8: a_il = ReLU(u_i P_u + u_i^(l) P_o) h^T.
      Value projected_u0 = tape->MatMul(tape->GatherRows(u0, rows),
                                        tape->Param(attention.proj_user));
      Value p_o = tape->Param(attention.proj_output);
      Value h_vec = tape->Param(attention.vector);
      std::vector<Value> layer_rows;
      Value scores;  // (rows x k), built by concatenation
      for (size_t l = 0; l < layers.size(); ++l) {
        layer_rows.push_back(layer_rows_of(l));
        Value hidden = tape->Relu(
            tape->Add(projected_u0, tape->MatMul(layer_rows[l], p_o)));
        Value a_l = tape->MatMul(hidden, h_vec);  // (rows x 1)
        scores = l == 0 ? a_l : tape->ConcatCols(scores, a_l);
      }
      // Eq. 9: softmax over layers; Eq. 10: weighted sum.
      Value softmax = tape->RowSoftmax(scores);
      if (weights != nullptr) *weights = softmax;
      Value aggregated;
      for (size_t l = 0; l < layers.size(); ++l) {
        Value weighted = tape->BroadcastColMul(
            layer_rows[l], tape->SliceCols(softmax, l, 1));
        aggregated = l == 0 ? weighted : tape->Add(aggregated, weighted);
      }
      return aggregated;
    }
  }
  HOSR_CHECK(false) << "unreachable aggregation";
  return layers.back();
}

util::Status Hosr::Config::Validate() const {
  if (embedding_dim == 0) {
    return util::Status::InvalidArgument("embedding_dim must be > 0");
  }
  if (num_layers == 0) {
    return util::Status::InvalidArgument("num_layers must be > 0");
  }
  if (embedding_dropout < 0.0f || embedding_dropout >= 1.0f) {
    return util::Status::InvalidArgument("embedding_dropout must be in [0,1)");
  }
  if (graph_dropout < 0.0f || graph_dropout >= 1.0f) {
    return util::Status::InvalidArgument("graph_dropout must be in [0,1)");
  }
  return util::Status::Ok();
}

Hosr::Hosr(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      social_(train.social),
      dropout_rng_(config.seed ^ 0x9e6c63d0876a9a47ULL) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  RebuildActiveLaplacian(social_);
  base_laplacian_ = active_laplacian_;
  item_term_ = BuildItemTermOperator(train.interactions,
                                     config_.implicit_decay);
  item_term_t_ = item_term_.Transpose();

  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  if (config.use_layer_weights) {
    for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
      layer_weights_.push_back(params_.CreateXavier(
          util::StrFormat("gcn_w%u", layer + 1), d, d, &rng));
    }
  }
  attention_ =
      LayerAttention::Create(config.aggregation, "", d, &params_, &rng);
}

void Hosr::RebuildActiveLaplacian(const graph::SocialGraph& graph) {
  active_laplacian_ = config_.self_connections
                          ? graph::NormalizedLaplacian(graph.adjacency())
                          : graph::NormalizedAdjacency(graph.adjacency());
}

void Hosr::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  const graph::SocialGraph thinned =
      graph::GraphDropout(social_, config_.graph_dropout, rng);
  RebuildActiveLaplacian(thinned);
}

std::vector<Value> Hosr::PropagateLayers(autograd::Tape* tape,
                                         const std::vector<uint32_t>& rows,
                                         bool training) {
  const graph::CsrMatrix* laplacian =
      training ? &active_laplacian_ : &base_laplacian_;
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = tape->Param(user_emb_);
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    obs::ScopedSpan span(obs::IndexedSpanName("hosr/layer_", layer + 1));
    // Eq. 5: U^(k) = act(L U^(k-1) W^(k)); L is symmetric. Only the rows
    // of the last layer are read, so only they are computed.
    std::optional<std::vector<uint32_t>> layer_rows;
    if (layer + 1 == config_.num_layers) layer_rows = rows;
    h = tape->SpMMRows(laplacian, laplacian, std::move(layer_rows), h);
    if (config_.use_layer_weights) {
      h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    }
    if (config_.use_activation) {
      h = config_.activation == Activation::kTanh ? tape->Tanh(h)
                                                  : tape->Relu(h);
    }
    // Embedding dropout (p1) on each layer's output.
    h = tape->Dropout(h, config_.embedding_dropout, training, &dropout_rng_);
    layers.push_back(h);
  }
  return layers;
}

Value Hosr::AggregateUsers(autograd::Tape* tape,
                           const std::vector<uint32_t>& rows, bool training,
                           Value* weights) {
  const std::vector<Value> layers = PropagateLayers(tape, rows, training);
  Value softmax;
  Value aggregated = AggregateLayerRows(tape, config_.aggregation, attention_,
                                        tape->Param(user_emb_), layers, rows,
                                        &softmax);
  if (softmax.defined() && !training && obs::Enabled()) {
    // Distribution of post-softmax layer weights (Eq. 9): how much each
    // scored user leans on each propagation depth.
    auto& histogram = HOSR_HISTOGRAM("hosr/attn_softmax_weight");
    const Matrix& w = softmax.value();
    for (size_t i = 0; i < w.size(); ++i) histogram.Observe(w.data()[i]);
  }
  if (weights != nullptr) *weights = softmax;
  return aggregated;
}

Value Hosr::UserRepresentation(autograd::Tape* tape,
                               const std::vector<uint32_t>& users,
                               bool training) {
  const std::vector<uint32_t> rows = UniqueRows({users});
  Value rep = AggregateUsers(tape, rows, training);
  if (config_.item_implicit_term) {
    // Eq. 11: add 1/sqrt(|I_i|) * sum of interacted item embeddings.
    rep = tape->Add(rep, tape->SpMMRows(&item_term_, &item_term_t_, rows,
                                        tape->Param(item_emb_)));
  }
  return tape->GatherRows(rep, LocalRows(rows, users));
}

Value Hosr::ScorePairs(autograd::Tape* tape,
                       const std::vector<uint32_t>& users,
                       const std::vector<uint32_t>& items, bool training) {
  Value u = UserRepresentation(tape, users, training);
  Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

Value Hosr::BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                      util::Rng* rng) {
  (void)rng;
  Value u = UserRepresentation(tape, batch.users, /*training=*/true);
  Value item_param = tape->Param(item_emb_);
  Value pos = tape->RowDot(u, tape->GatherRows(item_param, batch.pos_items));
  Value neg = tape->RowDot(u, tape->GatherRows(item_param, batch.neg_items));
  Value margin = tape->Sub(pos, neg);
  // Eq. 12 without the L2 term (decoupled weight decay in the optimizer).
  return tape->Scale(tape->Mean(tape->LogSigmoid(margin)), -1.0f);
}

Matrix Hosr::AttentionWeights() {
  HOSR_CHECK(config_.aggregation == LayerAggregation::kAttention);
  // One layer needs no softmax: its weight is 1 for every user.
  if (config_.num_layers == 1) return Matrix(num_users_, 1, 1.0f);
  autograd::Tape tape;
  Value weights;
  AggregateUsers(&tape, AllRows(num_users_), /*training=*/false, &weights);
  return weights.value();
}

Matrix Hosr::FinalUserEmbeddings() {
  autograd::Tape tape;
  return AggregateUsers(&tape, AllRows(num_users_), /*training=*/false)
      .value();
}

Matrix Hosr::ScoreAllItems(const std::vector<uint32_t>& users) {
  HOSR_TRACE_SPAN("hosr/score_all_items");
  autograd::Tape tape;
  const Value u = UserRepresentation(&tape, users, /*training=*/false);
  return tensor::MatMulNT(u.value(), item_emb_->value);
}

util::StatusOr<models::FrozenFactors> Hosr::ExportFactors() {
  autograd::Tape tape;
  models::FrozenFactors factors;
  factors.user_factors =
      UserRepresentation(&tape, AllRows(num_users_), /*training=*/false)
          .value();
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::core
