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
  // The half-precision pass runs in blocks of this many rows, with one
  // deadline check between blocks.
  uint32_t item_block = 2048;
};

// Answers top-K queries over a frozen ModelSnapshot: the user's exact
// top-K by dot(u, v_j) + item_bias[j], seen items excluded, ranked by
// eval::TopKAccumulator (the evaluator's selection, so offline and served
// rankings agree exactly). Each query runs in three steps:
//   1. one pass over a half-precision copy of the item table (built once,
//      at construction) gives every item an approximate score and bounds
//      that provably contain its fp32 score (engine.cc, BuildHalfTable);
//   2. an item stays a candidate when its upper bound reaches the k-th
//      largest lower bound among unseen items;
//   3. the candidates, in ascending item order, are rescored with
//      kernels::Active().dot plus item bias, the fp32 score the whole table
//      would get, and fed to the accumulator.
// The candidates always contain the exact top-K, so items, order, ties
// (lower index wins) and scores are those of a full fp32 scan. Stateless per
// query and safe to call from any number of threads concurrently.
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

  // The per-user exclusion list (empty when the engine was built without
  // seen-item filtering). Sorted ascending; used by DegradedRanker.
  const std::vector<uint32_t>& SeenItems(uint32_t user) const;

 private:
  // The one top-K path, shared by TopKForUser and TryTopKForUser: the half
  // pass, the filter and the exact rescoring, plus deadline checks, the
  // engine.score fault point, and Status plumbing. With kNoDeadline /
  // kNoFaultToken both hardening branches are never-taken compares.
  util::StatusOr<RankedItems> TopKImpl(uint32_t user, uint32_t k,
                                       Deadline deadline,
                                       uint64_t fault_token) const;

  // Fills the members below from the snapshot.
  void BuildHalfTable();

  ModelSnapshot snapshot_;
  EngineOptions options_;
  // Per-user sorted exclusion lists; empty when no `seen` was given.
  std::vector<std::vector<uint32_t>> seen_;
  // The first pass's table: item rows' binary16 images in the blocked
  // layout of kernels::KernelTable::score_half, zero rows padding the last
  // block. radius_ and bias_ are padded the same way.
  std::vector<uint16_t> half_items_;
  // Per item, the factor of |u| in the bound on |fp32 score - approximate
  // score|; infinite when the half image is not finite.
  std::vector<float> radius_;
  // The snapshot's item biases, padded; empty when it has none.
  std::vector<float> bias_;
  // The part of that bound that does not scale with |u| (bias rounding and
  // underflow), the same for every item.
  float bias_radius_ = 0.0f;
  // A query whose |u| * overflow_norm_ + max |item bias| could reach float
  // overflow treats every item as unbounded, so its answer is a full
  // rescore: no bound holds once a sum can overflow.
  double overflow_norm_ = 0.0;
  double max_abs_bias_ = 0.0;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_ENGINE_H_
