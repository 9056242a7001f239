#include "serve/hardened.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/admin_server.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hosr::serve {

namespace {

// Attempt tokens must be distinct per (request, attempt) so each attempt's
// fault draw is independent; 16 attempts per request is far above any sane
// retry cap.
constexpr uint64_t kMaxAttemptsPerRequest = 16;

// An answer's wire scores, computed once for the items it ranked.
ServeResponse Answer(const InferenceEngine& engine, uint32_t user,
                     RankedItems items, bool degraded) {
  std::vector<float> scores;
  scores.reserve(items.size());
  for (const uint32_t item : items) {
    scores.push_back(engine.snapshot().Score(user, item));
  }
  return ServeResponse{std::move(items), degraded, std::move(scores)};
}

uint64_t MixSeed(uint64_t seed, uint64_t token) {
  uint64_t x = seed ^ (token * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

HardenedExecutor::HardenedExecutor(const InferenceEngine* engine,
                                   HardenedOptions options)
    : engine_(engine), options_(options) {
  HOSR_CHECK(engine != nullptr);
  HOSR_CHECK(options_.retry.max_attempts >= 1);
  HOSR_CHECK(static_cast<uint64_t>(options_.retry.max_attempts) <
             kMaxAttemptsPerRequest);
}

util::StatusOr<ServeResponse> HardenedExecutor::Execute(uint32_t user,
                                                        uint32_t k,
                                                        uint64_t token) const {
  return Execute(user, k, token, kNoDeadline);
}

util::StatusOr<ServeResponse> HardenedExecutor::Execute(
    uint32_t user, uint32_t k, uint64_t token, Deadline deadline) const {
  HOSR_TRACE_SPAN("serve/request");
  const int64_t begin_ns = obs::NowNanos();
  util::StatusOr<ServeResponse> result =
      ExecuteInternal(user, k, token, deadline);
  // Observe() inherits the caller's request context, so tail buckets of
  // this histogram carry the trace ids of real slow requests as exemplars.
  HOSR_HISTOGRAM("serve/request_latency_ms")
      .Observe(static_cast<double>(obs::NowNanos() - begin_ns) / 1e6);
  obs::HealthTracker::Global().ReportOutcome(!result.ok());
  if (!result.ok() &&
      result.status().code() == util::StatusCode::kDeadlineExceeded) {
    obs::FlightRecorder::Global().OnDeadlineExceeded();
  }
  return result;
}

util::StatusOr<ServeResponse> HardenedExecutor::ExecuteInternal(
    uint32_t user, uint32_t k, uint64_t token, Deadline deadline) const {
  RetryPolicy::Options retry_options = options_.retry;
  if (options_.deadline_ms > 0.0) {
    retry_options.budget_ms = options_.deadline_ms;
  }
  if (deadline != kNoDeadline) {
    // Per-request deadline (the network path): enforce it against the
    // wall clock in the engine, and charge the retry budget against the
    // time actually remaining, never more than the configured budget.
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining_ms <= 0.0) {
      HOSR_COUNTER("serve/deadline_exceeded").Increment();
      return util::Status::DeadlineExceeded("request deadline expired");
    }
    retry_options.budget_ms = retry_options.budget_ms > 0.0
                                  ? std::min(retry_options.budget_ms,
                                             remaining_ms)
                                  : remaining_ms;
  }
  RetryPolicy retry(retry_options, MixSeed(options_.seed, token));

  util::Status last_status = util::Status::Ok();
  bool engine_deadline_spent = false;
  for (int attempt = 0;; ++attempt) {
    auto result = engine_->TryTopKForUser(
        user, k, deadline,
        token * kMaxAttemptsPerRequest + static_cast<uint64_t>(attempt));
    if (result.ok()) {
      return Answer(*engine_, user, std::move(result).value(),
                    /*degraded=*/false);
    }
    last_status = result.status();
    if (last_status.code() == util::StatusCode::kDeadlineExceeded) {
      // The engine ran out of deadline mid-scan; no point retrying the
      // full scoring, but the cheap fallback can still answer.
      engine_deadline_spent = true;
      break;
    }
    if (!RetryPolicy::ShouldRetry(last_status)) {
      return last_status;  // hard error: bad request, corrupt state, ...
    }
    const double delay_ms = retry.NextDelayMs();
    if (delay_ms < 0.0) break;  // schedule exhausted
    HOSR_COUNTER("serve/retries").Increment();
    if (delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
  }

  // Attempts (or deadline budget) exhausted. A blown budget means the
  // client's deadline has passed — answering late, even cheaply, is
  // useless. Otherwise degrade if we can.
  if (retry.BudgetBlown()) {
    HOSR_COUNTER("serve/deadline_exceeded").Increment();
    return util::Status::DeadlineExceeded(
        "retry budget exhausted: " + last_status.ToString());
  }
  if (options_.degraded != nullptr) {
    HOSR_COUNTER("serve/degraded").Increment();
    return Answer(*engine_, user, options_.degraded->TopK(user, k),
                  /*degraded=*/true);
  }
  if (engine_deadline_spent) {
    HOSR_COUNTER("serve/deadline_exceeded").Increment();
  }
  return last_status;
}

}  // namespace hosr::serve
