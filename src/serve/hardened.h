#ifndef HOSR_SERVE_HARDENED_H_
#define HOSR_SERVE_HARDENED_H_

#include <cstdint>
#include <vector>

#include "serve/degraded.h"
#include "serve/engine.h"
#include "serve/retry.h"
#include "util/statusor.h"

namespace hosr::serve {

// A served ranking plus how it was produced: `degraded` marks popularity
// fallback results so clients can distinguish them from full-engine answers.
// `scores[i]` is ModelSnapshot::Score(user, items[i]) under the snapshot
// that ranked the answer, filled once when the answer is made.
struct ServeResponse {
  RankedItems items;
  bool degraded = false;
  std::vector<float> scores;
};

struct HardenedOptions {
  RetryPolicy::Options retry;
  // Per-request latency budget in milliseconds; 0 disables deadlines.
  double deadline_ms = 0.0;
  // Fallback ranker; null disables degraded serving (failures propagate).
  const DegradedRanker* degraded = nullptr;
  // Seeds the per-request retry jitter streams.
  uint64_t seed = 1;
};

// Per-request hardening pipeline; each ServingState owns one, and
// SnapshotManager::Serve runs it on every cache miss. One Execute() call is
// one request:
//
//   1. deadline gate — an already-expired request fails fast with
//      DeadlineExceeded (never reaches the engine);
//   2. engine attempt — TryTopKForUser with the request's fault token; an
//      answer (this one or step 4's) carries its items' snapshot scores;
//   3. retry — transient errors (Unavailable, ResourceExhausted) back off
//      with decorrelated jitter and try again, capped by max_attempts and
//      by the deadline budget: every planned backoff is charged against
//      deadline_ms, so a request never sleeps past its deadline;
//   4. degrade — when attempts are exhausted (or the engine itself ran out
//      of deadline mid-scan) and budget remains, the DegradedRanker serves
//      a popularity answer flagged `degraded = true`;
//   5. give up — a blown budget is DeadlineExceeded; anything else
//      propagates the engine's last status.
//
// Outcome counters: serve/deadline_exceeded, serve/degraded, serve/retries.
// Each Execute() also records a "serve/request" span and an observation in
// the serve/request_latency_ms histogram (carrying the caller's request
// context as an exemplar), reports the outcome to obs::HealthTracker
// (deadline-exceeded and hard errors count against health), and notifies
// the flight recorder on deadline-exceeded so bursts trigger a dump.
//
// Determinism: the retry schedule is seeded by (seed, token) and fault
// decisions by (fault seed, token, attempt). An options-level deadline_ms
// is charged against the retry budget only, never read off the wall clock,
// so a request without a per-request deadline has an outcome that is a
// pure function of its token (docs/ROBUSTNESS.md).
class HardenedExecutor {
 public:
  // `engine` (and `options.degraded`, when set) must outlive the executor.
  HardenedExecutor(const InferenceEngine* engine, HardenedOptions options);

  // Serves one request. `token` must uniquely identify the request within
  // the run (e.g. its stream index). Thread-safe.
  util::StatusOr<ServeResponse> Execute(uint32_t user, uint32_t k,
                                        uint64_t token) const;

  // As above with an explicit absolute wall-clock deadline for THIS request
  // (the network path: a client's wire deadline_ms, converted at decode
  // time). kNoDeadline falls back to the configured options. A per-request
  // deadline is always wall-clock enforced — it lands in the engine's
  // per-block checks and caps the retry budget at the remaining time, and
  // tightens (never loosens) any options-level deadline_ms.
  util::StatusOr<ServeResponse> Execute(uint32_t user, uint32_t k,
                                        uint64_t token,
                                        Deadline deadline) const;

  const HardenedOptions& options() const { return options_; }

 private:
  // The un-instrumented pipeline; Execute() wraps it with span/latency/
  // health/flight-recorder bookkeeping.
  util::StatusOr<ServeResponse> ExecuteInternal(uint32_t user, uint32_t k,
                                                uint64_t token,
                                                Deadline deadline) const;

  const InferenceEngine* engine_;
  HardenedOptions options_;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_HARDENED_H_
