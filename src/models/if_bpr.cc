#include "models/if_bpr.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace hosr::models {

namespace {

// Top `keep` candidate users by path count, excluding self and explicit
// friends. `counts` maps candidate -> number of connecting paths.
std::vector<uint32_t> TopCandidates(
    const std::unordered_map<uint32_t, uint32_t>& counts, uint32_t self,
    const std::vector<uint32_t>& explicit_friends, uint32_t keep) {
  std::vector<std::pair<uint32_t, uint32_t>> ranked;  // (count, user)
  ranked.reserve(counts.size());
  for (const auto& [candidate, count] : counts) {
    if (candidate == self) continue;
    if (std::binary_search(explicit_friends.begin(), explicit_friends.end(),
                           candidate)) {
      continue;
    }
    ranked.emplace_back(count, candidate);
  }
  const size_t take = std::min<size_t>(keep, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + take, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;  // deterministic ties
                    });
  std::vector<uint32_t> result;
  result.reserve(take);
  for (size_t i = 0; i < take; ++i) result.push_back(ranked[i].second);
  return result;
}

}  // namespace

IfBpr::IfBpr(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      implicit_friends_(train.num_users()),
      social_items_(train.num_users()) {
  util::Rng rng(config.seed);
  user_emb_ = params_.CreateGaussian("user_emb", num_users_,
                                     config.embedding_dim,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_,
                                     config.embedding_dim,
                                     config.init_stddev, &rng);

  const auto item_index = train.interactions.BuildItemIndex();
  const auto& social = train.social;

  util::ParallelFor(
      0, num_users_,
      [&](size_t begin, size_t end) {
        std::unordered_map<uint32_t, uint32_t> counts;
        for (size_t uu = begin; uu < end; ++uu) {
          const auto u = static_cast<uint32_t>(uu);
          const auto friends = social.Neighbors(u);

          // U-U-U meta-path: friends of friends, weighted by path count.
          counts.clear();
          for (const uint32_t f : friends) {
            for (const uint32_t ff : social.Neighbors(f)) ++counts[ff];
          }
          auto uuu = TopCandidates(counts, u, friends,
                                   config_.implicit_friends_per_user);

          // U-I-U meta-path: co-consumers, weighted by shared items.
          counts.clear();
          for (const uint32_t item : train.interactions.ItemsOf(u)) {
            for (const uint32_t other : item_index[item]) ++counts[other];
          }
          auto uiu = TopCandidates(counts, u, friends,
                                   config_.implicit_friends_per_user);

          // Merge the two path results (dedup, keep order).
          std::unordered_set<uint32_t> seen;
          auto& merged = implicit_friends_[u];
          for (const auto& source : {uuu, uiu}) {
            for (const uint32_t candidate : source) {
              if (seen.insert(candidate).second) merged.push_back(candidate);
            }
          }

          // Social items: consumed by any friend (explicit or implicit)
          // but not by u.
          std::unordered_set<uint32_t> item_pool;
          auto add_items = [&](uint32_t friend_id) {
            for (const uint32_t item : train.interactions.ItemsOf(friend_id)) {
              if (!train.interactions.Contains(u, item)) {
                item_pool.insert(item);
              }
            }
          };
          for (const uint32_t f : friends) add_items(f);
          for (const uint32_t f : merged) add_items(f);
          auto& pool = social_items_[u];
          pool.assign(item_pool.begin(), item_pool.end());
          std::sort(pool.begin(), pool.end());
          if (pool.size() > config_.max_social_items_per_user) {
            // Deterministic thinning: keep an evenly strided subset.
            std::vector<uint32_t> kept;
            kept.reserve(config_.max_social_items_per_user);
            const double stride = static_cast<double>(pool.size()) /
                                  config_.max_social_items_per_user;
            for (uint32_t k = 0; k < config_.max_social_items_per_user; ++k) {
              kept.push_back(pool[static_cast<size_t>(k * stride)]);
            }
            pool = std::move(kept);
          }
        }
      },
      /*min_chunk=*/32);
}

autograd::Value IfBpr::ScorePairs(autograd::Tape* tape,
                                  const std::vector<uint32_t>& users,
                                  const std::vector<uint32_t>& items,
                                  bool training) {
  (void)training;
  autograd::Value u = tape->GatherRows(tape->Param(user_emb_), users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

autograd::Value IfBpr::BuildLoss(autograd::Tape* tape,
                                 const data::BprBatch& batch,
                                 util::Rng* rng) {
  // Sample one social item per triple; users without social items reuse
  // the positive item so the pos>social term vanishes (log sigma(0) const)
  // and the social>neg term degrades to plain BPR.
  std::vector<uint32_t> social_items;
  social_items.reserve(batch.users.size());
  for (size_t b = 0; b < batch.users.size(); ++b) {
    const auto& pool = social_items_[batch.users[b]];
    if (pool.empty()) {
      social_items.push_back(batch.pos_items[b]);
    } else {
      social_items.push_back(pool[rng->UniformInt(pool.size())]);
    }
  }

  autograd::Value user_param = tape->Param(user_emb_);
  autograd::Value item_param = tape->Param(item_emb_);
  autograd::Value u = tape->GatherRows(user_param, batch.users);
  autograd::Value pos =
      tape->RowDot(u, tape->GatherRows(item_param, batch.pos_items));
  autograd::Value soc =
      tape->RowDot(u, tape->GatherRows(item_param, social_items));
  autograd::Value neg =
      tape->RowDot(u, tape->GatherRows(item_param, batch.neg_items));

  autograd::Value pos_over_soc =
      tape->Mean(tape->LogSigmoid(tape->Sub(pos, soc)));
  autograd::Value soc_over_neg =
      tape->Mean(tape->LogSigmoid(tape->Sub(soc, neg)));
  autograd::Value loss = tape->Scale(pos_over_soc, -1.0f);
  return tape->Add(
      loss, tape->Scale(soc_over_neg, -config_.social_term_weight));
}

tensor::Matrix IfBpr::ScoreAllItems(const std::vector<uint32_t>& users) {
  return tensor::MatMulNT(tensor::GatherRows(user_emb_->value, users),
                          item_emb_->value);
}

util::StatusOr<FrozenFactors> IfBpr::ExportFactors() {
  FrozenFactors factors;
  factors.user_factors = user_emb_->value;
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::models
