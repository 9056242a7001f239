#ifndef HOSR_OBS_CONTEXT_H_
#define HOSR_OBS_CONTEXT_H_

#include <cstdint>

namespace hosr::obs {

// Request-scoped identity, threaded from the serving front end through
// every stage that works on the request's behalf (result cache, engine
// scoring, hardened retry pipeline). A nonzero `trace_id` stamps every
// span recorded while the context is installed and fills histogram
// exemplar slots, so a p99 outlier in `serve/request_latency_ms` can be
// resolved to the concrete offending request in `/tracez`
// (docs/OBSERVABILITY.md "Request-scoped tracing").
//
// Propagation rule for new subsystems: whatever thread does work for a
// request installs the request's context with ScopedRequestContext for the
// duration of that work. Contexts do not hop threads by themselves — a
// handoff (queue, thread pool, future) must carry the RequestContext value
// and re-install it on the receiving thread.
struct RequestContext {
  uint64_t trace_id = 0;  // 0 = no request in scope
  uint32_t user = 0;
  uint32_t k = 0;
};

namespace internal_context {
// Direct thread-local access keeps CurrentTraceId() cheap enough for
// histogram hot paths: one TLS read, no function call on the fast path.
extern thread_local RequestContext g_current;
}  // namespace internal_context

// The context installed on the calling thread (all-zero when none is).
inline const RequestContext& CurrentContext() {
  return internal_context::g_current;
}

// Trace id of the request the calling thread currently works for; 0 when
// the thread is not inside a request scope.
inline uint64_t CurrentTraceId() {
  return internal_context::g_current.trace_id;
}

// RAII installation: saves the thread's previous context and restores it on
// destruction, so nested scopes (a request spawning sub-work on the same
// thread) unwind correctly.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext& context)
      : previous_(internal_context::g_current) {
    internal_context::g_current = context;
  }
  ~ScopedRequestContext() { internal_context::g_current = previous_; }

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext previous_;
};

}  // namespace hosr::obs

#endif  // HOSR_OBS_CONTEXT_H_
