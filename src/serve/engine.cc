#include "serve/engine.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>
#include <limits>

#include "eval/topk.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hosr::serve {

namespace {

const std::vector<uint32_t> kNoExclusions;

// Unit roundoff of float.
constexpr double kUnit = 0x1p-24;
// Every bound term is widened by this factor before it is rounded up to
// float; the factor covers the roundings of scale * radius + bias_radius.
constexpr double kSlack = 1.0 + 0x1p-20;

// The smallest float >= x (x >= 0 or NaN; NaN and overflow give +inf).
float RoundUpToFloat(double x) {
  if (!(x <= FLT_MAX)) return std::numeric_limits<float>::infinity();
  const auto f = static_cast<float>(x);
  return static_cast<double>(f) >= x
             ? f
             : std::nextafter(f, std::numeric_limits<float>::infinity());
}

// Calls fn(j) for each j in [begin, end) with x[j] >= floor, in ascending
// order, skipping runs of kRun entries whose maximum (one SIMD reduction)
// is below floor. x holds no NaN. `floor` is read again for every run and
// entry, so fn may raise it.
template <typename Fn>
void ForEachAtLeast(const kernels::KernelTable& kern, const float* x,
                    uint32_t begin, uint32_t end, const float& floor, Fn fn) {
  constexpr uint32_t kRun = 64;
  for (uint32_t j0 = begin; j0 < end; j0 += kRun) {
    const uint32_t j1 = std::min(end, j0 + kRun);
    if (kern.reduce_max(j1 - j0, x + j0) < floor) continue;
    for (uint32_t j = j0; j < j1; ++j) {
      if (x[j] >= floor) fn(j);
    }
  }
}

}  // namespace

InferenceEngine::InferenceEngine(ModelSnapshot snapshot,
                                 const data::InteractionMatrix* seen,
                                 EngineOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {
  HOSR_CHECK(!snapshot_.factors.user_factors.empty() &&
             !snapshot_.factors.item_factors.empty())
      << "engine needs a non-empty snapshot";
  HOSR_CHECK(snapshot_.factors.user_factors.cols() ==
             snapshot_.factors.item_factors.cols());
  HOSR_CHECK(options_.item_block > 0);
  HOSR_CHECK(dim() < (1u << 22)) << "dim " << dim();
  if (seen != nullptr) {
    HOSR_CHECK(seen->num_users() == num_users() &&
               seen->num_items() == num_items())
        << "seen-item matrix " << seen->num_users() << "x"
        << seen->num_items() << " vs snapshot " << num_users() << "x"
        << num_items();
    seen_.resize(seen->num_users());
    for (uint32_t u = 0; u < seen->num_users(); ++u) {
      seen_[u] = seen->ItemsOf(u);  // already sorted ascending
    }
  }
  BuildHalfTable();
}

// The bound behind the filter. For user vector u and item row v with half
// image h, the engine's fp32 score is S = fl(dot(u, v)) (+ b), the first
// pass gives s = fl(dot(u, h)) (+ b), and
//   |fl(dot(u, v)) - u.v| <= g |u| |v|     (g = gamma_d = d*2^-24/(1-d*2^-24),
//   |fl(dot(u, h)) - u.h| <= g |u| |h|      any reduction order: Higham,
//   |u.v - u.h|           <= |u| |v - h|    Accuracy and Stability of
//                                           Numerical Algorithms, 3.1)
// so |S - s| <= |u| (|v - h| + g (|v| + |h|)) without a bias. With one, the
// bias adds of S and s each round once more, by at most 2^-24 times a value
// bounded by (1 + g) |u| |v| + |b|. The float arithmetic that forms
// s -+ radius rounds twice more, by at most 2^-24 times (1 + g) |u| |h| +
// |b| + radius each, and underflow adds at most 2^-150 per product. radius_
// and bias_radius_ hold all of these terms, widened by kSlack and rounded
// up, so the computed lower bound never exceeds S and the computed upper
// bound never falls below it.
void InferenceEngine::BuildHalfTable() {
  const auto& f = snapshot_.factors;
  const size_t d = dim();
  const uint32_t m = num_items();
  constexpr size_t kRows = kernels::kHalfBlockRows;
  // Padded to whole blocks: a padding row is all zeros, and no query ever
  // reads its bounds.
  const size_t padded = (m + kRows - 1) / kRows * kRows;
  const double gamma = static_cast<double>(d) * kUnit /
                       (1.0 - static_cast<double>(d) * kUnit);
  const double bias_terms = f.item_bias.empty() ? 0.0 : 1.0;
  half_items_.assign(padded * d, 0);
  radius_.assign(padded, 0.0f);
  double max_norm = 0.0;
  for (uint32_t j = 0; j < m; ++j) {
    const float* v = f.item_factors.row(j);
    uint16_t* h = half_items_.data() + (j - j % kRows) * d + j % kRows;
    double vv = 0.0, hh = 0.0, diff = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const uint16_t half = kernels::FloatToHalf(v[i]);
      h[i * kRows] = half;
      const double x = v[i];
      const double y = kernels::HalfToFloat(half);
      vv += x * x;
      hh += y * y;
      diff += (x - y) * (x - y);
    }
    const double norm_v = std::sqrt(vv);
    const double norm_h = std::sqrt(hh);
    radius_[j] = RoundUpToFloat(
        kSlack * (std::sqrt(diff) + gamma * (norm_v + norm_h) +
                  bias_terms * kUnit * (1.0 + gamma) * norm_v +
                  3.0 * kUnit * (1.0 + gamma) * norm_h));
    if (!(norm_v <= max_norm)) max_norm = norm_v;  // keeps a NaN
  }
  if (!f.item_bias.empty()) {
    bias_.assign(padded, 0.0f);
    std::copy(f.item_bias.begin(), f.item_bias.end(), bias_.begin());
  }
  for (const float b : f.item_bias) {
    const double abs_b = std::fabs(static_cast<double>(b));
    if (!(abs_b <= max_abs_bias_)) max_abs_bias_ = abs_b;
  }
  // Underflow adds at most 2^-150 per product, (2d + 16) 2^-149 in all,
  // which FLT_MIN covers for any d below 2^22. A subnormal here would cost
  // a microcode assist on every block of the pass.
  bias_radius_ = RoundUpToFloat(kSlack *
                                (4.0 * kUnit * max_abs_bias_ + FLT_MIN));
  // Partial sums of either pass stay below |u| |v| (1 + g) (1 + 2^-10),
  // since a half image is at most 2^-11 larger than its row.
  overflow_norm_ = max_norm * (1.0 + gamma) * (1.0 + 0x1p-10);
}

std::vector<uint32_t> InferenceEngine::TopKForUser(uint32_t user,
                                                   uint32_t k) const {
  HOSR_CHECK(user < num_users()) << user << " >= " << num_users();
  HOSR_CHECK(k > 0);
  auto result = TopKImpl(user, k, kNoDeadline, kNoFaultToken);
  HOSR_CHECK(result.ok()) << result.status();
  return std::move(result).value();
}

util::StatusOr<RankedItems> InferenceEngine::TryTopKForUser(
    uint32_t user, uint32_t k, Deadline deadline, uint64_t fault_token) const {
  if (k == 0) return util::Status::InvalidArgument("k must be >= 1");
  if (user >= num_users()) {
    return util::Status::OutOfRange(util::StrFormat(
        "user %u >= %u", user, num_users()));
  }
  return TopKImpl(user, k, deadline, fault_token);
}

util::StatusOr<RankedItems> InferenceEngine::TopKImpl(
    uint32_t user, uint32_t k, Deadline deadline, uint64_t fault_token) const {
  HOSR_TRACE_SPAN("serve/query");
  const util::WallTimer timer;

  if (fault_token != kNoFaultToken) {
    // A faulted scoring shard: the armed trigger decides — deterministically
    // from `fault_token` — whether this call errors or stalls.
    HOSR_RETURN_IF_ERROR(fault::Inject("engine.score", fault_token));
  }
  const bool has_deadline = deadline != kNoDeadline;
  if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
    HOSR_COUNTER("serve/engine_deadline_exceeded").Increment();
    return util::Status::DeadlineExceeded("deadline expired before scoring");
  }

  const auto& f = snapshot_.factors;
  const float* u = f.user_factors.row(user);
  const size_t d = f.item_factors.cols();
  const uint32_t m = num_items();
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  const std::vector<uint32_t>& excluded =
      seen_.empty() ? kNoExclusions : seen_[user];
  const kernels::KernelTable& kern = kernels::Active();

  // |u|, rounded up; infinite when a sum could overflow, which leaves every
  // item unbounded.
  double uu = 0.0;
  for (size_t i = 0; i < d; ++i) uu += static_cast<double>(u[i]) * u[i];
  const double norm_u = std::sqrt(uu);
  const float scale = norm_u * overflow_norm_ + max_abs_bias_ < 0x1p126
                          ? RoundUpToFloat(kSlack * norm_u)
                          : std::numeric_limits<float>::infinity();

  // Pass 1: bounds from the half table, item_block items (rounded up to
  // whole kernel blocks) at a time. An unbounded item gets (-inf, +inf):
  // always a candidate, never part of the threshold. `floor` tracks the
  // k-th largest lower bound among unseen items (-inf until k are seen).
  constexpr uint32_t kRows = kernels::kHalfBlockRows;
  const uint32_t block_items =
      (options_.item_block + kRows - 1) / kRows * kRows;
  static thread_local std::vector<float> lower_scratch;
  static thread_local std::vector<float> upper_scratch;
  static thread_local std::vector<float> floor_heap;  // min-heap, size <= k
  lower_scratch.resize(radius_.size());
  upper_scratch.resize(radius_.size());
  float* const lower = lower_scratch.data();
  float* const upper = upper_scratch.data();
  floor_heap.clear();
  float floor = -std::numeric_limits<float>::infinity();
  auto excluded_it = excluded.begin();
  for (uint32_t j0 = 0; j0 < m; j0 += block_items) {
    // One deadline read per block bounds overrun to a single block of
    // scoring while keeping the no-deadline path free of clock reads.
    if (has_deadline && j0 != 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      HOSR_COUNTER("serve/engine_deadline_exceeded").Increment();
      return util::Status::DeadlineExceeded(util::StrFormat(
          "deadline expired mid-scan at item %u of %u", j0, m));
    }
    const uint32_t j1 = std::min(m, j0 + block_items);
    kern.score_half((j1 - j0 + kRows - 1) / kRows, d, u,
                    half_items_.data() + static_cast<size_t>(j0) * d,
                    bias != nullptr ? bias + j0 : nullptr,
                    radius_.data() + j0, scale, bias_radius_, lower + j0,
                    upper + j0);
    ForEachAtLeast(kern, lower, j0, j1, floor, [&](uint32_t j) {
      if (!(lower[j] > floor)) return;
      while (excluded_it != excluded.end() && *excluded_it < j) ++excluded_it;
      if (excluded_it != excluded.end() && *excluded_it == j) return;
      if (floor_heap.size() == k) {
        std::pop_heap(floor_heap.begin(), floor_heap.end(), std::greater<>());
        floor_heap.back() = lower[j];
      } else {
        floor_heap.push_back(lower[j]);
      }
      std::push_heap(floor_heap.begin(), floor_heap.end(), std::greater<>());
      if (floor_heap.size() == k) floor = floor_heap.front();
    });
  }

  // Pass 2: k unseen items score at least `floor`, so an item whose upper
  // bound is below it cannot enter the top-K. The rest are rescored in
  // ascending order exactly as a full fp32 scan would score them.
  eval::TopKAccumulator acc(k);
  uint32_t candidates = 0;
  bool expired = false;
  excluded_it = excluded.begin();
  ForEachAtLeast(kern, upper, 0, m, floor, [&](uint32_t j) {
    while (excluded_it != excluded.end() && *excluded_it < j) ++excluded_it;
    if (expired || (excluded_it != excluded.end() && *excluded_it == j)) {
      return;
    }
    // A full rescore (every item unbounded) checks the deadline as often
    // as the first pass does.
    if (has_deadline && candidates != 0 && candidates % block_items == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      expired = true;
      return;
    }
    float score = kern.dot(d, u, f.item_factors.row(j));
    if (bias != nullptr) score += bias[j];
    acc.Consider(score, j);
    ++candidates;
  });
  if (expired) {
    HOSR_COUNTER("serve/engine_deadline_exceeded").Increment();
    return util::Status::DeadlineExceeded(util::StrFormat(
        "deadline expired after rescoring %u candidates", candidates));
  }
  auto result = acc.Take();

  HOSR_COUNTER("serve/engine_candidates").Increment(candidates);
  HOSR_COUNTER("kernels/score_flops")
      .Increment(2ull * (static_cast<uint64_t>(m) + candidates) * d);
  HOSR_COUNTER("serve/queries").Increment();
  HOSR_HISTOGRAM("serve/query_latency_us")
      .Observe(timer.ElapsedMillis() * 1000.0);
  return result;
}

const std::vector<uint32_t>& InferenceEngine::SeenItems(uint32_t user) const {
  HOSR_CHECK(user < num_users());
  if (seen_.empty()) return kNoExclusions;
  return seen_[user];
}

}  // namespace hosr::serve
