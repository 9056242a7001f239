#ifndef HOSR_OBS_METRICS_H_
#define HOSR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hosr::obs {

// Lock-free helpers for doubles: std::atomic<double>::fetch_add is C++20 but
// still library-dependent, so the histogram/gauge hot paths use a CAS loop.
void AtomicAddDouble(std::atomic<double>* target, double delta);
void AtomicMinDouble(std::atomic<double>* target, double value);
void AtomicMaxDouble(std::atomic<double>* target, double value);

// Monotonically increasing event count. The hot path is a single relaxed
// fetch_add; construction (registry lookup) is the only locking operation.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins scalar (e.g. the most recent epoch loss).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// One observation that landed in a histogram bucket while a request
// context was installed: the request's trace id plus the observed value.
// trace_id == 0 means the slot is empty.
struct Exemplar {
  uint64_t trace_id = 0;
  double value = 0.0;
};

// Distribution with fixed log-scale (power-of-two) buckets covering
// [2^kMinExp, 2^(kMaxExp+1)): bucket i holds values in
// [2^(kMinExp+i), 2^(kMinExp+i+1)). Non-positive values and underflow land
// in bucket 0; overflow lands in the last bucket. Observe() is wait-free on
// the bucket count and uses a short CAS loop for sum/min/max.
//
// Exemplars: every bucket carries one lock-free last-writer-wins exemplar
// slot. When Observe() runs inside a request scope (obs::CurrentTraceId()
// != 0) the bucket's slot is overwritten with that request's trace id and
// value, so tail buckets always name a real recent offending request. The
// id and value are separate atomics — two concurrent writers to one bucket
// may interleave (id from one, value from the other), which is acceptable:
// both belong to real requests that landed in the same bucket.
class Histogram {
 public:
  static constexpr int kMinExp = -30;  // ~1e-9: sub-microsecond latencies
  static constexpr int kMaxExp = 31;   // ~2e9: flop counts, big totals
  static constexpr int kNumBuckets = kMaxExp - kMinExp + 1;

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Min/Max are only meaningful when Count() > 0.
  double Min() const { return min_.load(std::memory_order_relaxed); }
  double Max() const { return max_.load(std::memory_order_relaxed); }

  // Upper bound (exclusive) of bucket `i`: 2^(kMinExp+i+1).
  static double BucketUpperBound(int i);
  // Bucket index a given value falls into.
  static int BucketFor(double value);

  std::vector<uint64_t> BucketSnapshot() const;

  // The exemplar recorded for bucket `i`; trace_id == 0 when no in-scope
  // observation has landed there since the last Reset().
  Exemplar ExemplarFor(int i) const;

  void Reset();

 private:
  struct ExemplarSlot {
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> value{0.0};
  };

  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  ExemplarSlot exemplars_[kNumBuckets] = {};
};

// The documented `subsystem/verb_unit` naming convention
// (docs/OBSERVABILITY.md), enforced at registration time: 2 or 3
// slash-separated segments, each `[a-z][a-z0-9_]*`, and no redundant
// `_total` suffix (the counter type already means "total"). Registration
// with an invalid name is a programming error and CHECK-fails.
bool IsValidMetricName(std::string_view name);

// Escapes `text` for embedding inside a JSON string literal (surrounding
// quotes not included). Shared by every obs JSON emitter.
std::string JsonEscapeString(std::string_view text);

// Appends `value` as a strict-JSON number: non-finite values (which %g
// would print as inf/nan) become null.
void AppendJsonNumber(double value, std::string* out);

// Quantile estimate over log-scale bucket counts (`buckets` indexed like
// Histogram::BucketSnapshot()): nearest-rank walk with linear interpolation
// inside the winning bucket. `q` in [0, 1]; returns 0 when the counts sum
// to zero. Shared by the /metricsz histogram summary fields and the
// timeseries windowed p50/p95/p99 (which feeds it per-window bucket deltas).
double QuantileFromBuckets(const std::vector<uint64_t>& buckets, double q);

// Process-wide named-metric registry. Lookup takes a mutex and returns a
// pointer that stays valid for the life of the process, so callers resolve
// once (the HOSR_COUNTER/... macros cache in a function-local static) and
// then touch only atomics. Names follow the `subsystem/verb_unit` convention
// (docs/OBSERVABILITY.md).
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // One JSON object: {"metrics": {"name": {"type": ..., ...}, ...}}.
  // Histograms export count/sum/min/max, precomputed p50/p95/p99, and the
  // non-empty buckets.
  std::string ToJson() const;

  // Calls the visitors for every registered metric of each kind, under the
  // registry lock, in name order. The pointers handed out are process-
  // lifetime stable, so callers (e.g. the timeseries recorder) may retain
  // them after the visit returns. Null visitors skip that kind.
  void VisitMetrics(
      const std::function<void(const std::string&, Counter*)>& counter_fn,
      const std::function<void(const std::string&, Gauge*)>& gauge_fn,
      const std::function<void(const std::string&, Histogram*)>& histogram_fn)
      const;

  // Zeroes every metric in place; previously returned pointers stay valid.
  void ResetForTesting();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

#define HOSR_OBS_CONCAT_INNER_(a, b) a##b
#define HOSR_OBS_CONCAT_(a, b) HOSR_OBS_CONCAT_INNER_(a, b)

// Call-site macros: resolve the named metric once (thread-safe function-local
// static) and return a reference, so repeated executions cost one atomic op.
#define HOSR_COUNTER(name)                                 \
  ([]() -> ::hosr::obs::Counter& {                         \
    static ::hosr::obs::Counter& metric =                  \
        *::hosr::obs::Registry::Global().GetCounter(name); \
    return metric;                                         \
  }())

#define HOSR_GAUGE(name)                                 \
  ([]() -> ::hosr::obs::Gauge& {                         \
    static ::hosr::obs::Gauge& metric =                  \
        *::hosr::obs::Registry::Global().GetGauge(name); \
    return metric;                                       \
  }())

#define HOSR_HISTOGRAM(name)                                 \
  ([]() -> ::hosr::obs::Histogram& {                         \
    static ::hosr::obs::Histogram& metric =                  \
        *::hosr::obs::Registry::Global().GetHistogram(name); \
    return metric;                                           \
  }())

}  // namespace hosr::obs

#endif  // HOSR_OBS_METRICS_H_
