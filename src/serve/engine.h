#ifndef HOSR_SERVE_ENGINE_H_
#define HOSR_SERVE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "data/interactions.h"
#include "serve/snapshot.h"

namespace hosr::serve {

using RankedItems = std::vector<uint32_t>;

// Absolute per-request deadline. kNoDeadline disables enforcement.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

// Fault-injection token sentinel: skip the engine.score injection point
// (used by the unhardened legacy entry points).
inline constexpr uint64_t kNoFaultToken = ~0ull - 1;

struct EngineOptions {
  // Items are scored in blocks of this many rows so the per-query score
  // scratch stays cache-resident even for catalogs in the millions.
  uint32_t item_block = 2048;
};

// Answers top-K queries over a frozen ModelSnapshot: a blocked GEMV over
// the item-factor matrix feeds an eval::TopKAccumulator (the evaluator's
// selection, so offline and served rankings agree exactly), with the
// user's already-consumed training items filtered out. Stateless per query
// and safe to call from any number of threads concurrently; TopKBatch
// additionally shards a batch across util::ThreadPool::Global(), in chunks
// that util::GrainFor sizes from the per-user work (num_items * dim).
class InferenceEngine {
 public:
  // `seen` (optional) supplies per-user items to exclude from results —
  // typically the training interactions. Its user/item spaces must match
  // the snapshot. The item lists are copied; `seen` may die afterwards.
  InferenceEngine(ModelSnapshot snapshot, const data::InteractionMatrix* seen,
                  EngineOptions options = {});
  explicit InferenceEngine(ModelSnapshot snapshot)
      : InferenceEngine(std::move(snapshot), nullptr) {}

  uint32_t num_users() const { return snapshot_.num_users(); }
  uint32_t num_items() const { return snapshot_.num_items(); }
  uint32_t dim() const { return snapshot_.dim(); }
  const ModelSnapshot& snapshot() const { return snapshot_; }

  // Top-K items for one user, best first, seen items excluded. Runs on the
  // calling thread. `user` must be < num_users(), k >= 1; K larger than
  // the candidate count returns every candidate ranked.
  std::vector<uint32_t> TopKForUser(uint32_t user, uint32_t k) const;

  // Status-returning, deadline-aware variant — the serving path. Invalid
  // users / k return InvalidArgument/OutOfRange instead of aborting; an
  // expired `deadline` fails fast with DeadlineExceeded (also checked
  // between item blocks, so a query never overruns its deadline by more
  // than one block of scoring); and the `engine.score` fault-injection
  // point runs with `fault_token` so injected failures are a deterministic
  // function of the request (docs/ROBUSTNESS.md).
  util::StatusOr<RankedItems> TryTopKForUser(
      uint32_t user, uint32_t k, Deadline deadline = kNoDeadline,
      uint64_t fault_token = kNoFaultToken) const;

  // One ranked list per user, sharded across the global thread pool.
  std::vector<std::vector<uint32_t>> TopKBatch(
      const std::vector<uint32_t>& users, uint32_t k) const;

  // The per-user exclusion list (empty when the engine was built without
  // seen-item filtering). Sorted ascending; used by DegradedRanker.
  const std::vector<uint32_t>& SeenItems(uint32_t user) const;

  // Full unfiltered score vector for one user — the reference the blocked
  // kernel is tested against, and a debugging aid.
  std::vector<float> ScoreAll(uint32_t user) const;

 private:
  // The one scoring kernel, shared by TopKForUser and TryTopKForUser:
  // blocked GEMV + TopKAccumulator, plus deadline checks, the engine.score
  // fault point, and Status plumbing. With kNoDeadline/kNoFaultToken both
  // hardening branches are single never-taken compares, so the legacy path
  // pays only the StatusOr wrapper per query.
  util::StatusOr<RankedItems> TopKImpl(uint32_t user, uint32_t k,
                                       Deadline deadline,
                                       uint64_t fault_token) const;

  ModelSnapshot snapshot_;
  EngineOptions options_;
  // Per-user sorted exclusion lists; empty when no `seen` was given.
  std::vector<std::vector<uint32_t>> seen_;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_ENGINE_H_
