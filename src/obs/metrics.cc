#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/context.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::obs {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

int Histogram::BucketFor(double value) {
  if (!(value > 0.0) || std::isinf(value)) {
    return value > 0.0 ? kNumBuckets - 1 : 0;
  }
  const int exp = std::ilogb(value);  // floor(log2(value)) for finite v > 0
  if (exp < kMinExp) return 0;
  if (exp > kMaxExp) return kNumBuckets - 1;
  return exp - kMinExp;
}

double Histogram::BucketUpperBound(int i) {
  return std::ldexp(1.0, kMinExp + i + 1);
}

void Histogram::Observe(double value) {
  const int bucket = BucketFor(value);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // Exemplar capture: last in-scope observation wins the bucket's slot.
  // One TLS read when no request context is installed.
  if (const uint64_t trace_id = CurrentTraceId(); trace_id != 0) {
    exemplars_[bucket].value.store(value, std::memory_order_relaxed);
    exemplars_[bucket].trace_id.exchange(trace_id,
                                         std::memory_order_relaxed);
  }
  AtomicAddDouble(&sum_, value);
  // First observation seeds min/max; later ones CAS toward the extremes.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    AtomicMinDouble(&min_, value);
    AtomicMaxDouble(&max_, value);
  }
}

std::vector<uint64_t> Histogram::BucketSnapshot() const {
  std::vector<uint64_t> snapshot(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

Exemplar Histogram::ExemplarFor(int i) const {
  Exemplar exemplar;
  exemplar.trace_id = exemplars_[i].trace_id.load(std::memory_order_relaxed);
  exemplar.value = exemplars_[i].value.load(std::memory_order_relaxed);
  return exemplar;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  for (auto& slot : exemplars_) {
    slot.trace_id.store(0, std::memory_order_relaxed);
    slot.value.store(0.0, std::memory_order_relaxed);
  }
}

double QuantileFromBuckets(const std::vector<uint64_t>& buckets, double q) {
  uint64_t total = 0;
  for (const uint64_t count : buckets) total += count;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank (1-based): the smallest rank covering fraction q.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets[i];
    if (cumulative >= rank) {
      const int index = static_cast<int>(i);
      const double upper = Histogram::BucketUpperBound(index);
      // Bucket 0 also absorbs non-positive values and underflow, so its
      // interpolation floor is 0 rather than its nominal power of two.
      const double lower =
          index == 0 ? 0.0 : Histogram::BucketUpperBound(index - 1);
      const double fraction = static_cast<double>(rank - before) /
                              static_cast<double>(buckets[i]);
      return lower + fraction * (upper - lower);
    }
  }
  return Histogram::BucketUpperBound(static_cast<int>(buckets.size()) - 1);
}

bool IsValidMetricName(std::string_view name) {
  if (name.ends_with("_total")) return false;  // the type already says so
  int segments = 0;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t end = std::min(name.find('/', start), name.size());
    const std::string_view segment = name.substr(start, end - start);
    if (segment.empty() || segment[0] < 'a' || segment[0] > 'z') return false;
    for (const char c : segment) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
      if (!ok) return false;
    }
    ++segments;
    if (end == name.size()) break;
    start = end + 1;
  }
  return segments >= 2 && segments <= 3;
}

Registry& Registry::Global() {
  // Leaked so metric pointers cached at call sites (and the atexit artifact
  // dump) stay valid throughout static destruction.
  static Registry* registry = new Registry;
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  HOSR_CHECK(IsValidMetricName(name))
      << "metric name \"" << name << "\" violates subsystem/verb_unit";
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  HOSR_CHECK(IsValidMetricName(name))
      << "metric name \"" << name << "\" violates subsystem/verb_unit";
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  HOSR_CHECK(IsValidMetricName(name))
      << "metric name \"" << name << "\" violates subsystem/verb_unit";
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::string JsonEscapeString(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append(util::StrFormat("\\u%04x", c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  out->append(JsonEscapeString(text));
  out->push_back('"');
}

}  // namespace

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  out->append(util::StrFormat("%.17g", value));
}

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json = "{\n  \"metrics\": {";
  bool first = true;
  const auto begin_entry = [&](std::string_view name) {
    if (!first) json.push_back(',');
    first = false;
    json.append("\n    ");
    AppendJsonString(name, &json);
    json.append(": ");
  };
  for (const auto& [name, counter] : counters_) {
    begin_entry(name);
    json.append(util::StrFormat("{\"type\": \"counter\", \"value\": %llu}",
                                static_cast<unsigned long long>(
                                    counter->Get())));
  }
  for (const auto& [name, gauge] : gauges_) {
    begin_entry(name);
    json.append("{\"type\": \"gauge\", \"value\": ");
    AppendJsonNumber(gauge->Get(), &json);
    json.push_back('}');
  }
  for (const auto& [name, histogram] : histograms_) {
    begin_entry(name);
    const uint64_t count = histogram->Count();
    const std::vector<uint64_t> buckets = histogram->BucketSnapshot();
    json.append(util::StrFormat("{\"type\": \"histogram\", \"count\": %llu",
                                static_cast<unsigned long long>(count)));
    json.append(", \"sum\": ");
    AppendJsonNumber(histogram->Sum(), &json);
    if (count > 0) {
      json.append(", \"min\": ");
      AppendJsonNumber(histogram->Min(), &json);
      json.append(", \"max\": ");
      AppendJsonNumber(histogram->Max(), &json);
      // Precomputed summary quantiles (log-bucket estimates) so dashboards
      // and bench_diff never re-derive them from the bucket list.
      json.append(", \"p50\": ");
      AppendJsonNumber(QuantileFromBuckets(buckets, 0.50), &json);
      json.append(", \"p95\": ");
      AppendJsonNumber(QuantileFromBuckets(buckets, 0.95), &json);
      json.append(", \"p99\": ");
      AppendJsonNumber(QuantileFromBuckets(buckets, 0.99), &json);
    }
    json.append(", \"buckets\": [");
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      if (!first_bucket) json.append(", ");
      first_bucket = false;
      json.append("{\"le\": ");
      AppendJsonNumber(Histogram::BucketUpperBound(i), &json);
      json.append(util::StrFormat(", \"count\": %llu",
                                  static_cast<unsigned long long>(
                                      buckets[i])));
      // Exemplar: the trace id of a real request that landed in this
      // bucket, resolvable against /tracez (docs/OBSERVABILITY.md).
      if (const Exemplar exemplar = histogram->ExemplarFor(i);
          exemplar.trace_id != 0) {
        json.append(util::StrFormat(
            ", \"exemplar\": {\"trace_id\": %llu, \"value\": ",
            static_cast<unsigned long long>(exemplar.trace_id)));
        AppendJsonNumber(exemplar.value, &json);
        json.push_back('}');
      }
      json.push_back('}');
    }
    json.append("]}");
  }
  json.append("\n  }\n}\n");
  return json;
}

void Registry::VisitMetrics(
    const std::function<void(const std::string&, Counter*)>& counter_fn,
    const std::function<void(const std::string&, Gauge*)>& gauge_fn,
    const std::function<void(const std::string&, Histogram*)>& histogram_fn)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counter_fn) {
    for (const auto& [name, counter] : counters_) {
      counter_fn(name, counter.get());
    }
  }
  if (gauge_fn) {
    for (const auto& [name, gauge] : gauges_) gauge_fn(name, gauge.get());
  }
  if (histogram_fn) {
    for (const auto& [name, histogram] : histograms_) {
      histogram_fn(name, histogram.get());
    }
  }
}

void Registry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace hosr::obs
