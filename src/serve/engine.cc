#include "serve/engine.h"

#include <algorithm>

#include "eval/topk.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hosr::serve {

namespace {
const std::vector<uint32_t> kNoExclusions;
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
  const std::vector<uint32_t>& excluded =
      seen_.empty() ? kNoExclusions : seen_[user];

  static thread_local std::vector<float> scratch;
  scratch.resize(options_.item_block);
  const kernels::KernelTable& kern = kernels::Active();
  HOSR_COUNTER("kernels/score_flops").Increment(2ull * m * d);
  eval::TopKAccumulator acc(k);
  auto excluded_it = excluded.begin();
  for (uint32_t j0 = 0; j0 < m; j0 += options_.item_block) {
    // One deadline read per block bounds overrun to a single block of
    // scoring while keeping the no-deadline path free of clock reads.
    if (has_deadline && j0 != 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      HOSR_COUNTER("serve/engine_deadline_exceeded").Increment();
      return util::Status::DeadlineExceeded(util::StrFormat(
          "deadline expired mid-scan at item %u of %u", j0, m));
    }
    const uint32_t j1 = std::min(m, j0 + options_.item_block);
    // Fused scoring GEMV: one pass fills the scratch block and returns its
    // max, so a block whose best score cannot crack the current top-K is
    // rejected without any per-item heap compares. The reject is exact:
    // WouldAccept keeps ties (lower index can still win), and scores are
    // identical either way, so rankings never change.
    const float block_max = kern.score_block(
        j1 - j0, d, u, f.item_factors.row(j0),
        f.item_bias.empty() ? nullptr : f.item_bias.data() + j0,
        scratch.data());
    if (acc.Full() && !acc.WouldAccept(block_max)) continue;
    for (uint32_t j = j0; j < j1; ++j) {
      while (excluded_it != excluded.end() && *excluded_it < j) ++excluded_it;
      if (excluded_it != excluded.end() && *excluded_it == j) continue;
      acc.Consider(scratch[j - j0], j);
    }
  }
  auto result = acc.Take();

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

std::vector<std::vector<uint32_t>> InferenceEngine::TopKBatch(
    const std::vector<uint32_t>& users, uint32_t k) const {
  HOSR_TRACE_SPAN("serve/topk_batch");
  std::vector<std::vector<uint32_t>> results(users.size());
  util::ParallelFor(
      0, users.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          results[i] = TopKForUser(users[i], k);
        }
      },
      util::GrainFor(static_cast<size_t>(num_items()) * dim()));
  HOSR_HISTOGRAM("serve/batch_size").Observe(static_cast<double>(users.size()));
  return results;
}

std::vector<float> InferenceEngine::ScoreAll(uint32_t user) const {
  HOSR_CHECK(user < num_users());
  std::vector<float> scores(num_items());
  for (uint32_t j = 0; j < num_items(); ++j) {
    scores[j] = snapshot_.Score(user, j);
  }
  return scores;
}

}  // namespace hosr::serve
