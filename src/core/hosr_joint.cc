#include "core/hosr_joint.h"

#include <cmath>
#include <optional>

#include "graph/laplacian.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

util::Status HosrJoint::Config::Validate() const {
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

HosrJoint::HosrJoint(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      dropout_rng_(config.seed ^ 0x853c49e6748fea9bULL),
      social_edges_(train.social.EdgeList()),
      interaction_edges_(train.interactions.ToList()) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  base_laplacian_ = BuildJointLaplacian(social_edges_, interaction_edges_);
  active_laplacian_ = base_laplacian_;

  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  node_emb_ = params_.CreateGaussian("node_emb", num_users_ + num_items_, d,
                                     config.init_stddev, &rng);
  for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
    layer_weights_.push_back(params_.CreateXavier(
        util::StrFormat("joint_w%u", layer + 1), d, d, &rng));
  }
  attention_ = LayerAttention::Create(config.aggregation, "joint_", d,
                                      &params_, &rng);
}

graph::CsrMatrix HosrJoint::BuildJointLaplacian(
    const std::vector<std::pair<uint32_t, uint32_t>>& social_edges,
    const std::vector<data::Interaction>& interactions) const {
  const uint32_t n = num_users_ + num_items_;
  std::vector<graph::Triplet> triplets;
  triplets.reserve(social_edges.size() * 2 + interactions.size() * 2);
  for (const auto& [a, b] : social_edges) {
    triplets.push_back({a, b, 1.0f});
    triplets.push_back({b, a, 1.0f});
  }
  for (const auto& edge : interactions) {
    const uint32_t item_node = num_users_ + edge.item;
    triplets.push_back({edge.user, item_node, 1.0f});
    triplets.push_back({item_node, edge.user, 1.0f});
  }
  const graph::CsrMatrix adjacency =
      graph::CsrMatrix::FromTriplets(n, n, std::move(triplets));
  return graph::NormalizedLaplacian(adjacency);
}

void HosrJoint::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  std::vector<std::pair<uint32_t, uint32_t>> kept_social;
  for (const auto& edge : social_edges_) {
    if (!rng->Bernoulli(config_.graph_dropout)) kept_social.push_back(edge);
  }
  std::vector<data::Interaction> kept_interactions;
  for (const auto& edge : interaction_edges_) {
    if (!rng->Bernoulli(config_.graph_dropout)) {
      kept_interactions.push_back(edge);
    }
  }
  active_laplacian_ = BuildJointLaplacian(kept_social, kept_interactions);
}

Value HosrJoint::PropagateAndAggregate(autograd::Tape* tape,
                                       const std::vector<uint32_t>& rows,
                                       bool training) {
  const graph::CsrMatrix* laplacian =
      training ? &active_laplacian_ : &base_laplacian_;
  Value e0 = tape->Param(node_emb_);
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = e0;
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    // Only the rows of the last layer are read.
    std::optional<std::vector<uint32_t>> layer_rows;
    if (layer + 1 == config_.num_layers) layer_rows = rows;
    h = tape->SpMMRows(laplacian, laplacian, std::move(layer_rows), h);
    h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    h = config_.activation == Activation::kTanh ? tape->Tanh(h)
                                                : tape->Relu(h);
    h = tape->Dropout(h, config_.embedding_dropout, training, &dropout_rng_);
    layers.push_back(h);
  }
  return AggregateLayerRows(tape, config_.aggregation, attention_, e0, layers,
                            rows);
}

std::vector<uint32_t> HosrJoint::ItemNodes(
    const std::vector<uint32_t>& items) const {
  std::vector<uint32_t> nodes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    HOSR_CHECK(items[i] < num_items_);
    nodes[i] = num_users_ + items[i];
  }
  return nodes;
}

std::pair<Value, Value> HosrJoint::UserAndItemRows(
    autograd::Tape* tape, const std::vector<uint32_t>& users,
    const std::vector<uint32_t>& items, bool training) {
  // Ids at or past n are item nodes, not users.
  for (const uint32_t user : users) HOSR_CHECK(user < num_users_) << user;
  const std::vector<uint32_t> item_nodes = ItemNodes(items);
  const std::vector<uint32_t> rows = UniqueRows({users, item_nodes});
  Value nodes = PropagateAndAggregate(tape, rows, training);
  return {tape->GatherRows(nodes, LocalRows(rows, users)),
          tape->GatherRows(nodes, LocalRows(rows, item_nodes))};
}

Value HosrJoint::ScorePairs(autograd::Tape* tape,
                            const std::vector<uint32_t>& users,
                            const std::vector<uint32_t>& items,
                            bool training) {
  const auto [u, v] = UserAndItemRows(tape, users, items, training);
  return tape->RowDot(u, v);
}

Value HosrJoint::BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                           util::Rng* rng) {
  (void)rng;
  for (const uint32_t user : batch.users) HOSR_CHECK(user < num_users_) << user;
  const std::vector<uint32_t> pos_nodes = ItemNodes(batch.pos_items);
  const std::vector<uint32_t> neg_nodes = ItemNodes(batch.neg_items);
  // The loss reads user and item nodes alike; the tail runs on their union.
  const std::vector<uint32_t> rows =
      UniqueRows({batch.users, pos_nodes, neg_nodes});
  Value nodes = PropagateAndAggregate(tape, rows, /*training=*/true);
  Value u = tape->GatherRows(nodes, LocalRows(rows, batch.users));
  Value pos =
      tape->RowDot(u, tape->GatherRows(nodes, LocalRows(rows, pos_nodes)));
  Value neg =
      tape->RowDot(u, tape->GatherRows(nodes, LocalRows(rows, neg_nodes)));
  return tape->Scale(tape->Mean(tape->LogSigmoid(tape->Sub(pos, neg))),
                     -1.0f);
}

Matrix HosrJoint::FinalNodeEmbeddings() {
  autograd::Tape tape;
  return PropagateAndAggregate(&tape, AllRows(num_users_ + num_items_),
                               /*training=*/false)
      .value();
}

Matrix HosrJoint::ScoreAllItems(const std::vector<uint32_t>& users) {
  autograd::Tape tape;
  const auto [u, v] =
      UserAndItemRows(&tape, users, AllRows(num_items_), /*training=*/false);
  return tensor::MatMulNT(u.value(), v.value());
}

}  // namespace hosr::core
