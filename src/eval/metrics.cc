#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "eval/topk.h"

namespace hosr::eval {

namespace {

bool IsRelevant(const std::vector<uint32_t>& relevant, uint32_t item) {
  return std::binary_search(relevant.begin(), relevant.end(), item);
}

}  // namespace

double RecallAtK(const std::vector<uint32_t>& ranked,
                 const std::vector<uint32_t>& relevant) {
  if (relevant.empty()) return 0.0;
  size_t hits = 0;
  for (const uint32_t item : ranked) {
    if (IsRelevant(relevant, item)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(relevant.size());
}

double PrecisionAtK(const std::vector<uint32_t>& ranked,
                    const std::vector<uint32_t>& relevant, uint32_t k) {
  if (relevant.empty() || k == 0) return 0.0;
  size_t hits = 0;
  for (size_t pos = 0; pos < ranked.size() && pos < k; ++pos) {
    if (IsRelevant(relevant, ranked[pos])) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

double AveragePrecisionAtK(const std::vector<uint32_t>& ranked,
                           const std::vector<uint32_t>& relevant, uint32_t k) {
  if (relevant.empty() || k == 0) return 0.0;
  size_t hits = 0;
  double sum_precision = 0.0;
  for (size_t pos = 0; pos < ranked.size() && pos < k; ++pos) {
    if (IsRelevant(relevant, ranked[pos])) {
      ++hits;
      sum_precision +=
          static_cast<double>(hits) / static_cast<double>(pos + 1);
    }
  }
  const auto denom = static_cast<double>(
      std::min<size_t>(relevant.size(), k));
  return sum_precision / denom;
}

double NdcgAtK(const std::vector<uint32_t>& ranked,
               const std::vector<uint32_t>& relevant, uint32_t k) {
  if (relevant.empty() || k == 0) return 0.0;
  double dcg = 0.0;
  for (size_t pos = 0; pos < ranked.size() && pos < k; ++pos) {
    if (IsRelevant(relevant, ranked[pos])) {
      dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
    }
  }
  double ideal = 0.0;
  const size_t ideal_hits = std::min<size_t>(relevant.size(), k);
  for (size_t pos = 0; pos < ideal_hits; ++pos) {
    ideal += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
  }
  return ideal > 0.0 ? dcg / ideal : 0.0;
}

}  // namespace hosr::eval
