#include "models/model.h"

namespace hosr::models {

autograd::Value RankingModel::BuildLoss(autograd::Tape* tape,
                                        const data::BprBatch& batch,
                                        util::Rng* rng) {
  (void)rng;
  autograd::Value pos =
      ScorePairs(tape, batch.users, batch.pos_items, /*training=*/true);
  autograd::Value neg =
      ScorePairs(tape, batch.users, batch.neg_items, /*training=*/true);
  autograd::Value margin = tape->Sub(pos, neg);
  autograd::Value log_likelihood = tape->Mean(tape->LogSigmoid(margin));
  return tape->Scale(log_likelihood, -1.0f);
}

}  // namespace hosr::models
