#ifndef HOSR_CORE_HOSR_H_
#define HOSR_CORE_HOSR_H_

#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"
#include "util/statusor.h"

namespace hosr::core {

// How the outputs of the k GCN layers are combined into the final user
// embedding (Table 4's model variants).
enum class LayerAggregation {
  kLast,       // "base": use u^(k) only (Eq. 7)
  kAverage,    // "average": equal-weight mean of u^(1..k)
  kAttention,  // "attention": learned per-user weights (Eqs. 8-10)
};

// Nonlinearity applied after each propagation layer. The paper uses tanh
// (Eq. 2); ReLU is provided for the activation ablation.
enum class Activation { kTanh, kRelu };

// Decay factor of the item-implicit term in Eq. 11.
enum class ImplicitDecay {
  kSqrtUserItems,  // 1/sqrt(|I_i|)            (the paper's choice)
  kSqrtBoth,       // 1/sqrt(|I_i| |A_j|)      (the alternative it mentions)
};

// The attention network of Eqs. 8-10, shared by HOSR, HOSR-GAT and
// HOSR-Joint. All null unless the aggregation is kAttention.
struct LayerAttention {
  autograd::Param* proj_user = nullptr;    // P_u (d x d)
  autograd::Param* proj_output = nullptr;  // P_o (d x d)
  autograd::Param* vector = nullptr;       // h   (d x 1)

  // Creates `<prefix>attn_p_u`, `<prefix>attn_p_o` and `<prefix>attn_h`
  // for kAttention; an all-null network otherwise.
  static LayerAttention Create(LayerAggregation aggregation,
                               const std::string& prefix, uint32_t d,
                               autograd::ParamStore* params, util::Rng* rng);
};

// Item-implicit operator of Eq. 11 (n x m): entry (i, j) for j in I_i,
// weighted by `decay`.
graph::CsrMatrix BuildItemTermOperator(
    const data::InteractionMatrix& interactions, ImplicitDecay decay);

using IdLists =
    std::initializer_list<std::reference_wrapper<const std::vector<uint32_t>>>;

// Sorted unique ids of all `id_lists`: the rows of a full-graph table that
// a batch reads.
std::vector<uint32_t> UniqueRows(IdLists id_lists);

// 0, 1, ..., n - 1: every row of an n-row table.
std::vector<uint32_t> AllRows(uint32_t n);

// Position of each of `ids` in `rows` (sorted; must contain every id).
std::vector<uint32_t> LocalRows(const std::vector<uint32_t>& rows,
                                const std::vector<uint32_t>& ids);

// Aggregates the k layer outputs `layers` on `rows` only (sorted, unique).
// layers.back() is already on `rows` (rows x d): models run the last layer
// on the rows alone. The earlier layers are full-graph tables (n x d);
// this gathers their rows, and those of the layer-0 table `u0` for
// attention, then runs the row-wise tail (last / average / Eqs. 8-10).
// Row i of the result belongs to rows[i]. If the tail runs the Eq. 9
// softmax (kAttention over more than one layer) and `weights` is not null,
// *weights is set to its (rows x k) output.
autograd::Value AggregateLayerRows(autograd::Tape* tape,
                                   LayerAggregation aggregation,
                                   const LayerAttention& attention,
                                   autograd::Value u0,
                                   const std::vector<autograd::Value>& layers,
                                   const std::vector<uint32_t>& rows,
                                   autograd::Value* weights = nullptr);

// HOSR — the paper's High-Order Social Recommender (Sec. 2): k stacked GCN
// layers propagate user embeddings along the social graph (Eqs. 3-6), an
// attention network aggregates the per-layer outputs (Eqs. 8-10), an
// SVD++-style item-implicit term joins the final embedding, and prediction
// is a dot product with the item embedding (Eq. 11). Trained with BPR
// (Eq. 12) under embedding dropout (p1) and graph dropout (p2) (Sec. 2.4).
class Hosr : public models::RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;        // d
    uint32_t num_layers = 3;            // k
    LayerAggregation aggregation = LayerAggregation::kAttention;
    Activation activation = Activation::kTanh;
    // Include the self-connection in the propagation operator (Eq. 6 adds
    // I; disabling it is the self-connection ablation).
    bool self_connections = true;
    // Include the item-implicit term of Eq. 11.
    bool item_implicit_term = true;
    // Apply the per-layer weight matrices W^(k) (Eq. 4). Disabling them —
    // together with the activation — yields a LightGCN-style simplified
    // propagation, an ablation of the paper's design.
    bool use_layer_weights = true;
    // Apply the nonlinearity after each layer (Eq. 2's tanh).
    bool use_activation = true;
    ImplicitDecay implicit_decay = ImplicitDecay::kSqrtUserItems;
    float embedding_dropout = 0.0f;     // p1 (paper's best: 0)
    float graph_dropout = 0.2f;         // p2 (paper's best: 0.2)
    // Smaller than the shallow baselines' 0.1: embeddings pass through k
    // propagation layers, and a smaller start keeps early updates stable.
    float init_stddev = 0.05f;
    uint64_t seed = 7;

    util::Status Validate() const;
  };

  // `train` supplies both the social graph (propagation) and the training
  // interactions (item-implicit term). Aborts on invalid config; call
  // Config::Validate() first for recoverable handling.
  Hosr(const data::Dataset& train, const Config& config);

  std::string name() const override { return "HOSR"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }
  const Config& config() const { return config_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // Shares one propagation across the positive and negative BPR branches.
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  // Frozen factors for serving: the user side is ScoreAllItems' user
  // representation of every user, so snapshot scores match it bit for bit.
  util::StatusOr<models::FrozenFactors> ExportFactors() override;

  // Re-samples the graph-dropout adjacency (Sec. 2.4: once per epoch).
  void OnEpochBegin(uint32_t epoch, util::Rng* rng) override;

  autograd::ParamStore* params() override { return &params_; }

  // Per-user Eq. 9 attention weights over layers, inference mode: (n x k),
  // all ones when k = 1. kAttention only — Fig. 7's data.
  tensor::Matrix AttentionWeights();

  // Final inference-mode user embeddings (aggregated, without the
  // item-implicit term): (n x d).
  tensor::Matrix FinalUserEmbeddings();

 private:
  // Builds the k layer outputs on the tape, in order 1..k: layers 1..k-1
  // on every user, layer k on `rows` (sorted, unique) only.
  std::vector<autograd::Value> PropagateLayers(
      autograd::Tape* tape, const std::vector<uint32_t>& rows, bool training);
  // Eqs. 3-10: propagation, aggregated on `rows` as in AggregateLayerRows;
  // inference calls observe hosr/attn_softmax_weight.
  autograd::Value AggregateUsers(autograd::Tape* tape,
                                 const std::vector<uint32_t>& rows,
                                 bool training,
                                 autograd::Value* weights = nullptr);
  // Final embeddings incl. the item-implicit term of `users` (may repeat):
  // the Eq. 8-11 tail runs once per unique user.
  autograd::Value UserRepresentation(autograd::Tape* tape,
                                     const std::vector<uint32_t>& users,
                                     bool training);

  void RebuildActiveLaplacian(const graph::SocialGraph& graph);

  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  graph::SocialGraph social_;
  util::Rng dropout_rng_;
  // Propagation operator on the full graph (inference) and on the
  // epoch's thinned graph (training). Both are symmetric.
  graph::CsrMatrix base_laplacian_;
  graph::CsrMatrix active_laplacian_;
  // Item-implicit operator of Eq. 11 (n x m) and transpose.
  graph::CsrMatrix item_term_;
  graph::CsrMatrix item_term_t_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  std::vector<autograd::Param*> layer_weights_;  // W^(k), Eq. 4
  LayerAttention attention_;                     // Eqs. 8-10
};

}  // namespace hosr::core

#endif  // HOSR_CORE_HOSR_H_
