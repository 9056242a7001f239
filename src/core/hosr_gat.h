#ifndef HOSR_CORE_HOSR_GAT_H_
#define HOSR_CORE_HOSR_GAT_H_

#include <string>
#include <vector>

#include "core/hosr.h"
#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"

namespace hosr::core {

// HOSR-GAT — the paper's second future-work direction (Sec. 5): "utilize
// attention mechanism to specify attention weights for user-user
// connections" (close vs normal friends).
//
// Propagation replaces Eq. 5's fixed decay factors 1/sqrt(|A_i||A_j|) with
// *learned per-edge* coefficients, GAT-style:
//
//   e_ij     = LeakyReLU(h_i W a_src + h_j W a_tgt)
//   alpha_ij = softmax over j in (A_i ∪ {i}) of e_ij
//   h_i'     = tanh( sum_j alpha_ij (h_j W) )
//
// Layer outputs are aggregated with HOSR's per-user attention network and
// prediction keeps Eq. 11's item-implicit term.
class HosrGat : public models::RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    uint32_t num_layers = 3;
    LayerAggregation aggregation = LayerAggregation::kAttention;
    float leaky_slope = 0.2f;
    bool item_implicit_term = true;
    float embedding_dropout = 0.0f;
    float graph_dropout = 0.2f;
    float init_stddev = 0.05f;
    uint64_t seed = 7;

    util::Status Validate() const;
  };

  HosrGat(const data::Dataset& train, const Config& config);

  std::string name() const override { return "HOSR-GAT"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  void OnEpochBegin(uint32_t epoch, util::Rng* rng) override;

  autograd::ParamStore* params() override { return &params_; }

  // Learned first-layer attention coefficient of every directed edge
  // (self-loops included), inference mode. Entry e weights edge
  // (EdgeSource(e) -> edge_targets()[e]). For tests and introspection.
  std::vector<float> FirstLayerEdgeAttention();
  const std::vector<size_t>& edge_offsets() const { return edges_.offsets; }
  const std::vector<uint32_t>& edge_targets() const { return edges_.targets; }

 private:
  // Flattened "self + neighbors" edge arrays for the given graph.
  struct EdgeArrays {
    std::vector<size_t> offsets;    // n + 1
    std::vector<uint32_t> sources;  // E (segment owner, repeated)
    std::vector<uint32_t> targets;  // E
  };
  static EdgeArrays BuildEdges(const graph::SocialGraph& graph);
  // The segments of `rows` (sorted, unique) of `edges`, in order: segment
  // i belongs to rows[i].
  static EdgeArrays RowEdges(const EdgeArrays& edges,
                             const std::vector<uint32_t>& rows);

  // The edge-score half of a GAT layer: alpha (E x 1), the softmax of each
  // source's edge scores, and the rows of h W at the edges' targets.
  struct EdgeAttention {
    autograd::Value alpha;
    autograd::Value target_features;
  };
  EdgeAttention AttendEdges(autograd::Tape* tape, autograd::Value h,
                            size_t layer, const EdgeArrays& edges);
  // One GAT propagation step on the tape.
  autograd::Value GatLayer(autograd::Tape* tape, autograd::Value h,
                           size_t layer, const EdgeArrays& edges,
                           bool training);
  // Final embeddings of `users` (may repeat); the aggregation and Eq. 11
  // run once per unique user.
  autograd::Value UserRepresentation(autograd::Tape* tape,
                                     const std::vector<uint32_t>& users,
                                     bool training);

  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  graph::SocialGraph social_;
  util::Rng dropout_rng_;
  // Full-graph edges (inference) and the epoch's thinned edges (training).
  EdgeArrays edges_;
  EdgeArrays active_edges_;
  graph::CsrMatrix item_term_;
  graph::CsrMatrix item_term_t_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  std::vector<autograd::Param*> layer_weights_;
  std::vector<autograd::Param*> edge_attn_src_;  // (d x 1) per layer
  std::vector<autograd::Param*> edge_attn_tgt_;  // (d x 1) per layer
  LayerAttention attention_;
};

}  // namespace hosr::core

#endif  // HOSR_CORE_HOSR_GAT_H_
