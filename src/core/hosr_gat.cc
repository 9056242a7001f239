#include "core/hosr_gat.h"

#include "graph/sampling.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

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

HosrGat::EdgeArrays HosrGat::RowEdges(const EdgeArrays& edges,
                                      const std::vector<uint32_t>& rows) {
  EdgeArrays row_edges;
  row_edges.offsets.reserve(rows.size() + 1);
  row_edges.offsets.push_back(0);
  for (const uint32_t row : rows) {
    const size_t begin = edges.offsets[row];
    const size_t end = edges.offsets[row + 1];
    row_edges.sources.insert(row_edges.sources.end(),
                             edges.sources.begin() + begin,
                             edges.sources.begin() + end);
    row_edges.targets.insert(row_edges.targets.end(),
                             edges.targets.begin() + begin,
                             edges.targets.begin() + end);
    row_edges.offsets.push_back(row_edges.targets.size());
  }
  return row_edges;
}

HosrGat::HosrGat(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      social_(train.social),
      dropout_rng_(config.seed ^ 0xc2b2ae3d27d4eb4fULL),
      edges_(BuildEdges(social_)),
      active_edges_(edges_),
      item_term_(BuildItemTermOperator(train.interactions,
                                       ImplicitDecay::kSqrtUserItems)),
      item_term_t_(item_term_.Transpose()) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();

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
  attention_ =
      LayerAttention::Create(config.aggregation, "gat_", d, &params_, &rng);
}

void HosrGat::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  const graph::SocialGraph thinned =
      graph::GraphDropout(social_, config_.graph_dropout, rng);
  active_edges_ = BuildEdges(thinned);
}

HosrGat::EdgeAttention HosrGat::AttendEdges(autograd::Tape* tape, Value h,
                                            size_t layer,
                                            const EdgeArrays& edges) {
  Value hw = tape->MatMul(h, tape->Param(layer_weights_[layer]));
  Value src_feat = tape->GatherRows(hw, edges.sources);
  Value tgt_feat = tape->GatherRows(hw, edges.targets);
  Value scores = tape->LeakyRelu(
      tape->Add(tape->MatMul(src_feat, tape->Param(edge_attn_src_[layer])),
                tape->MatMul(tgt_feat, tape->Param(edge_attn_tgt_[layer]))),
      config_.leaky_slope);
  return {tape->SegmentSoftmax(scores, edges.offsets), tgt_feat};
}

Value HosrGat::GatLayer(autograd::Tape* tape, Value h, size_t layer,
                        const EdgeArrays& edges, bool training) {
  const EdgeAttention attention = AttendEdges(tape, h, layer, edges);
  Value aggregated = tape->SegmentWeightedSum(
      attention.alpha, attention.target_features, edges.offsets);
  Value activated = tape->Tanh(aggregated);
  return tape->Dropout(activated, config_.embedding_dropout, training,
                       &dropout_rng_);
}

Value HosrGat::UserRepresentation(autograd::Tape* tape,
                                  const std::vector<uint32_t>& users,
                                  bool training) {
  // Full-graph edges at inference; epoch-thinned edges while training.
  const EdgeArrays& edges = training ? active_edges_ : edges_;

  const std::vector<uint32_t> rows = UniqueRows({users});

  Value u0 = tape->Param(user_emb_);
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = u0;
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    obs::ScopedSpan span(obs::IndexedSpanName("hosr_gat/layer_", layer + 1));
    // Only the rows of the last layer are read: it attends over their
    // edge segments alone.
    h = layer + 1 == config_.num_layers
            ? GatLayer(tape, h, layer, RowEdges(edges, rows), training)
            : GatLayer(tape, h, layer, edges, training);
    layers.push_back(h);
  }

  Value rep = AggregateLayerRows(tape, config_.aggregation, attention_, u0,
                                 layers, rows);
  if (config_.item_implicit_term) {
    rep = tape->Add(rep, tape->SpMMRows(&item_term_, &item_term_t_, rows,
                                        tape->Param(item_emb_)));
  }
  return tape->GatherRows(rep, LocalRows(rows, users));
}

Value HosrGat::ScorePairs(autograd::Tape* tape,
                          const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& items, bool training) {
  Value u = UserRepresentation(tape, users, training);
  Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

Value HosrGat::BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                         util::Rng* rng) {
  (void)rng;
  Value u = UserRepresentation(tape, batch.users, /*training=*/true);
  Value item_param = tape->Param(item_emb_);
  Value pos = tape->RowDot(u, tape->GatherRows(item_param, batch.pos_items));
  Value neg = tape->RowDot(u, tape->GatherRows(item_param, batch.neg_items));
  return tape->Scale(tape->Mean(tape->LogSigmoid(tape->Sub(pos, neg))),
                     -1.0f);
}

Matrix HosrGat::ScoreAllItems(const std::vector<uint32_t>& users) {
  autograd::Tape tape;
  Value u = UserRepresentation(&tape, users, /*training=*/false);
  return tensor::MatMulNT(u.value(), item_emb_->value);
}

std::vector<float> HosrGat::FirstLayerEdgeAttention() {
  autograd::Tape tape;
  const Matrix& alpha =
      AttendEdges(&tape, tape.Param(user_emb_), 0, edges_).alpha.value();
  std::vector<float> result(alpha.data(), alpha.data() + alpha.size());
  if (obs::Enabled()) {
    auto& histogram = HOSR_HISTOGRAM("hosr_gat/edge_attn_weight");
    for (const float weight : result) histogram.Observe(weight);
  }
  return result;
}

}  // namespace hosr::core
