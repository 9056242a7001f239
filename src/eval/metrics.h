#ifndef HOSR_EVAL_METRICS_H_
#define HOSR_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace hosr::eval {

// Ranking metrics over a single user's top-K recommendation list.
// `ranked` is the recommendation list in rank order (best first, length
// <= K); `relevant` is the user's held-out positive item set, sorted
// ascending. All metrics return 0 when `relevant` is empty.

// |top-K ∩ relevant| / |relevant|  (the paper's Recall@K).
double RecallAtK(const std::vector<uint32_t>& ranked,
                 const std::vector<uint32_t>& relevant);

// |top-K ∩ relevant| / K.
double PrecisionAtK(const std::vector<uint32_t>& ranked,
                    const std::vector<uint32_t>& relevant, uint32_t k);

// Average precision at K: mean over hit positions of precision-at-that-
// position, normalized by min(|relevant|, K). Averaging this over users
// yields the paper's MAP@K.
double AveragePrecisionAtK(const std::vector<uint32_t>& ranked,
                           const std::vector<uint32_t>& relevant, uint32_t k);

// Normalized discounted cumulative gain at K with binary relevance.
double NdcgAtK(const std::vector<uint32_t>& ranked,
               const std::vector<uint32_t>& relevant, uint32_t k);

}  // namespace hosr::eval

#endif  // HOSR_EVAL_METRICS_H_
