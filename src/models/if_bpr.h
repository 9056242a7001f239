#ifndef HOSR_MODELS_IF_BPR_H_
#define HOSR_MODELS_IF_BPR_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"

namespace hosr::models {

// IF-BPR+ (Yu et al.): matrix factorization trained with an *ordered*
// pairwise ranking objective over item classes derived from explicit and
// heterogeneous-path *implicit* friends:
//   positive items  >  social items  >  unobserved items.
// Implicit friends are identified offline from two meta-paths —
// U-U-U (friends of friends, ranked by shared-friend count) and
// U-I-U (co-consumers, ranked by shared-item count) — mirroring the
// published method's path-based friend discovery. Social items are items
// consumed by any (explicit or implicit) friend but not by the user.
class IfBpr : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    float init_stddev = 0.1f;
    // Implicit friends kept per user per meta-path.
    uint32_t implicit_friends_per_user = 10;
    // Cap on cached social-item candidates per user.
    uint32_t max_social_items_per_user = 200;
    // Weight of the social>negative ranking term relative to pos>social.
    float social_term_weight = 1.0f;
    uint64_t seed = 7;
  };

  IfBpr(const data::Dataset& train, const Config& config);

  std::string name() const override { return "IF-BPR+"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // Ordered ranking loss over (positive, social, negative) item triples.
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  util::StatusOr<FrozenFactors> ExportFactors() override;

  autograd::ParamStore* params() override { return &params_; }

  // Exposed for tests: the discovered implicit friends of `user`.
  const std::vector<uint32_t>& ImplicitFriends(uint32_t user) const {
    return implicit_friends_[user];
  }
  // Exposed for tests: cached social-item candidates of `user`.
  const std::vector<uint32_t>& SocialItems(uint32_t user) const {
    return social_items_[user];
  }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  std::vector<std::vector<uint32_t>> implicit_friends_;
  std::vector<std::vector<uint32_t>> social_items_;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_IF_BPR_H_
