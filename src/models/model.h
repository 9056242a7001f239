#ifndef HOSR_MODELS_MODEL_H_
#define HOSR_MODELS_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/param.h"
#include "autograd/tape.h"
#include "data/sampler.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/statusor.h"

namespace hosr::models {

// A model's scoring function frozen into bilinear factors for serving:
//   score(u, i) = dot(user_factors.row(u), item_factors.row(i))
//                 + user_bias[u] + item_bias[i] + global_bias.
// Bias vectors may be empty, meaning all-zero. Every dot-product model
// (HOSR, BPR, TrustSVD, IF-BPR+, DeepInf) bakes its social diffusion /
// implicit-feedback terms into `user_factors`, so a frozen export scores
// exactly like ScoreAllItems at a fraction of the cost.
struct FrozenFactors {
  tensor::Matrix user_factors;  // (n x d)
  tensor::Matrix item_factors;  // (m x d)
  std::vector<float> user_bias;  // (n) or empty
  std::vector<float> item_bias;  // (m) or empty
  float global_bias = 0.0f;
};

// Interface shared by HOSR and every baseline: a model that ranks items for
// users, trains on BPR triples via the autograd tape, and scores every item
// for evaluation (graph models through their training forward on a tape).
class RankingModel {
 public:
  virtual ~RankingModel() = default;

  virtual std::string name() const = 0;
  virtual uint32_t num_users() const = 0;
  virtual uint32_t num_items() const = 0;

  // Builds the training loss for one mini-batch of triples on `tape` and
  // returns the scalar (1x1) loss Value. The default implementation is the
  // BPR loss of Eq. 12 (without the L2 term, which the optimizer applies as
  // decoupled weight decay): mean over triples of -ln sigmoid(y+ - y-).
  // Models with extra loss terms (NSCR) or a different ranking objective
  // (IF-BPR) override this.
  virtual autograd::Value BuildLoss(autograd::Tape* tape,
                                    const data::BprBatch& batch,
                                    util::Rng* rng);

  // Differentiable scores for (user, item) pairs: returns a (B x 1) Value.
  // `training` enables dropout.
  virtual autograd::Value ScorePairs(autograd::Tape* tape,
                                     const std::vector<uint32_t>& users,
                                     const std::vector<uint32_t>& items,
                                     bool training) = 0;

  // Inference-mode scores of every item for each user: (|users| x m).
  // Row b's bits depend on users[b] only; users may repeat, in any order.
  virtual tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) = 0;

  // Exports the current parameters as frozen bilinear factors for snapshot
  // serving (serve::BuildSnapshot), from ScoreAllItems' forward. Dot-product
  // models override this; models whose scorer is not bilinear (NCF, NSCR)
  // keep the default Unimplemented and cannot be served from a snapshot.
  virtual util::StatusOr<FrozenFactors> ExportFactors() {
    return util::Status::Unimplemented(name() +
                                       " cannot export bilinear factors");
  }

  // Called by the trainer at each epoch start (e.g. HOSR re-samples its
  // graph-dropout adjacency here).
  virtual void OnEpochBegin(uint32_t epoch, util::Rng* rng) {
    (void)epoch;
    (void)rng;
  }

  virtual autograd::ParamStore* params() = 0;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_MODEL_H_
