#include "core/hosr_gat.h"

#include <cmath>

#include "graph/sampling.h"
#include "graph/spmm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

namespace {

// Item-implicit operator of Eq. 11 with the paper's 1/sqrt(|I_i|) decay.
graph::CsrMatrix BuildItemTermOperator(
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

}  // namespace

util::Status HosrGat::Config::Validate() const {
  if (embedding_dim == 0) {
    return util::Status::InvalidArgument("embedding_dim must be > 0");
  }
  if (num_layers == 0) {
    return util::Status::InvalidArgument("num_layers must be > 0");
  }
  if (leaky_slope < 0.0f || leaky_slope >= 1.0f) {
    return util::Status::InvalidArgument("leaky_slope must be in [0,1)");
  }
  if (embedding_dropout < 0.0f || embedding_dropout >= 1.0f) {
    return util::Status::InvalidArgument("embedding_dropout must be in [0,1)");
  }
  if (graph_dropout < 0.0f || graph_dropout >= 1.0f) {
    return util::Status::InvalidArgument("graph_dropout must be in [0,1)");
  }
  return util::Status::Ok();
}

HosrGat::EdgeArrays HosrGat::BuildEdges(const graph::SocialGraph& graph) {
  EdgeArrays edges;
  const uint32_t n = graph.num_users();
  edges.offsets.reserve(n + 1);
  edges.offsets.push_back(0);
  edges.sources.reserve(graph.adjacency().nnz() + n);
  edges.targets.reserve(graph.adjacency().nnz() + n);
  const auto& adj = graph.adjacency();
  for (uint32_t i = 0; i < n; ++i) {
    // Self-loop first, then neighbors.
    edges.sources.push_back(i);
    edges.targets.push_back(i);
    for (size_t k = adj.row_begin(i); k < adj.row_end(i); ++k) {
      edges.sources.push_back(i);
      edges.targets.push_back(adj.col_idx()[k]);
    }
    edges.offsets.push_back(edges.targets.size());
  }
  return edges;
}

HosrGat::HosrGat(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      social_(train.social),
      dropout_rng_(config.seed ^ 0xc2b2ae3d27d4eb4fULL),
      item_term_(BuildItemTermOperator(train.interactions)),
      item_term_t_(item_term_.Transpose()) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  EdgeArrays full = BuildEdges(social_);
  edge_offsets_ = full.offsets;
  edge_sources_ = full.sources;
  edge_targets_ = full.targets;
  active_edges_ = std::move(full);

  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
    layer_weights_.push_back(params_.CreateXavier(
        util::StrFormat("gat_w%u", layer + 1), d, d, &rng));
    edge_attn_src_.push_back(params_.CreateXavier(
        util::StrFormat("gat_a_src%u", layer + 1), d, 1, &rng));
    edge_attn_tgt_.push_back(params_.CreateXavier(
        util::StrFormat("gat_a_tgt%u", layer + 1), d, 1, &rng));
  }
  if (config.aggregation == LayerAggregation::kAttention) {
    attn_proj_user_ = params_.CreateXavier("gat_attn_p_u", d, d, &rng);
    attn_proj_output_ = params_.CreateXavier("gat_attn_p_o", d, d, &rng);
    attn_vector_ = params_.CreateXavier("gat_attn_h", d, 1, &rng);
  } else {
    attn_proj_user_ = attn_proj_output_ = attn_vector_ = nullptr;
  }
}

void HosrGat::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  const graph::SocialGraph thinned =
      graph::GraphDropout(social_, config_.graph_dropout, rng);
  active_edges_ = BuildEdges(thinned);
}

Value HosrGat::GatLayer(autograd::Tape* tape, Value h, size_t layer,
                        const EdgeArrays& edges, bool training) {
  Value hw = tape->MatMul(h, tape->Param(layer_weights_[layer]));
  Value src_feat = tape->GatherRows(hw, edges.sources);
  Value tgt_feat = tape->GatherRows(hw, edges.targets);
  Value scores = tape->LeakyRelu(
      tape->Add(tape->MatMul(src_feat, tape->Param(edge_attn_src_[layer])),
                tape->MatMul(tgt_feat, tape->Param(edge_attn_tgt_[layer]))),
      config_.leaky_slope);
  Value alpha = tape->SegmentSoftmax(scores, edges.offsets);
  Value aggregated = tape->SegmentWeightedSum(alpha, tgt_feat, edges.offsets);
  Value activated = tape->Tanh(aggregated);
  return tape->Dropout(activated, config_.embedding_dropout, training,
                       &dropout_rng_);
}

Value HosrGat::UserRepresentation(autograd::Tape* tape, bool training) {
  // Full-graph edges at inference; epoch-thinned edges while training.
  EdgeArrays inference_edges;
  const EdgeArrays* edges = &active_edges_;
  if (!training) {
    inference_edges.offsets = edge_offsets_;
    inference_edges.sources = edge_sources_;
    inference_edges.targets = edge_targets_;
    edges = &inference_edges;
  }

  Value u0 = tape->Param(user_emb_);
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = u0;
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    obs::ScopedSpan span(obs::IndexedSpanName("hosr_gat/layer_", layer + 1));
    h = GatLayer(tape, h, layer, *edges, training);
    layers.push_back(h);
  }

  Value aggregated;
  switch (config_.aggregation) {
    case LayerAggregation::kLast:
      aggregated = layers.back();
      break;
    case LayerAggregation::kAverage: {
      Value acc = layers[0];
      for (size_t l = 1; l < layers.size(); ++l) {
        acc = tape->Add(acc, layers[l]);
      }
      aggregated = tape->Scale(acc, 1.0f / static_cast<float>(layers.size()));
      break;
    }
    case LayerAggregation::kAttention: {
      if (layers.size() == 1) {
        aggregated = layers[0];
        break;
      }
      Value projected = tape->MatMul(u0, tape->Param(attn_proj_user_));
      Value p_o = tape->Param(attn_proj_output_);
      Value h_vec = tape->Param(attn_vector_);
      Value scores;
      for (size_t l = 0; l < layers.size(); ++l) {
        Value hidden =
            tape->Relu(tape->Add(projected, tape->MatMul(layers[l], p_o)));
        Value a_l = tape->MatMul(hidden, h_vec);
        scores = l == 0 ? a_l : tape->ConcatCols(scores, a_l);
      }
      Value weights = tape->RowSoftmax(scores);
      for (size_t l = 0; l < layers.size(); ++l) {
        Value weighted =
            tape->BroadcastColMul(layers[l], tape->SliceCols(weights, l, 1));
        aggregated = l == 0 ? weighted : tape->Add(aggregated, weighted);
      }
      break;
    }
  }

  if (config_.item_implicit_term) {
    Value implicit =
        tape->SpMM(&item_term_, &item_term_t_, tape->Param(item_emb_));
    aggregated = tape->Add(aggregated, implicit);
  }
  return aggregated;
}

Value HosrGat::ScorePairs(autograd::Tape* tape,
                          const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& items, bool training) {
  Value rep = UserRepresentation(tape, training);
  Value u = tape->GatherRows(rep, users);
  Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

Value HosrGat::BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                         util::Rng* rng) {
  (void)rng;
  Value rep = UserRepresentation(tape, /*training=*/true);
  Value u = tape->GatherRows(rep, batch.users);
  Value item_param = tape->Param(item_emb_);
  Value pos = tape->RowDot(u, tape->GatherRows(item_param, batch.pos_items));
  Value neg = tape->RowDot(u, tape->GatherRows(item_param, batch.neg_items));
  return tape->Scale(tape->Mean(tape->LogSigmoid(tape->Sub(pos, neg))),
                     -1.0f);
}

Matrix HosrGat::ScoreAllItems(const std::vector<uint32_t>& users) {
  // Inference goes through the tape (no dropout, full graph) — the GAT
  // forward has no lighter closed form worth duplicating.
  autograd::Tape tape;
  Value rep = UserRepresentation(&tape, /*training=*/false);
  const Matrix gathered = tensor::GatherRows(rep.value(), users);
  Matrix scores(users.size(), num_items_);
  tensor::Gemm(gathered, false, item_emb_->value, true, 1.0f, 0.0f, &scores);
  return scores;
}

std::vector<float> HosrGat::FirstLayerEdgeAttention() {
  autograd::Tape tape;
  Value hw =
      tape.MatMul(tape.Param(user_emb_), tape.Param(layer_weights_[0]));
  Value src_feat = tape.GatherRows(hw, edge_sources_);
  Value tgt_feat = tape.GatherRows(hw, edge_targets_);
  Value scores = tape.LeakyRelu(
      tape.Add(tape.MatMul(src_feat, tape.Param(edge_attn_src_[0])),
               tape.MatMul(tgt_feat, tape.Param(edge_attn_tgt_[0]))),
      config_.leaky_slope);
  Value alpha = tape.SegmentSoftmax(scores, edge_offsets_);
  std::vector<float> result(alpha.rows());
  for (size_t e = 0; e < result.size(); ++e) {
    result[e] = alpha.value()(e, 0);
  }
  if (obs::Enabled()) {
    auto& histogram = HOSR_HISTOGRAM("hosr_gat/edge_attn_weight");
    for (const float weight : result) histogram.Observe(weight);
  }
  return result;
}

}  // namespace hosr::core
