#include "obs/timeseries.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::obs {

namespace {

enum class SeriesKind { kCounter, kGauge, kHistogram };

struct Point {
  int64_t t_ns = 0;        // steady-clock snapshot time (NowNanos epoch)
  double interval_s = 0;   // measured distance to the previous snapshot
  double value = 0;        // counter: rate/sec; gauge: value; hist: mean
  uint64_t delta = 0;      // counter: count delta; hist: observation delta
  double p50 = 0, p95 = 0, p99 = 0;  // histograms only
};

struct Series {
  explicit Series(SeriesKind k) : kind(k) {}
  SeriesKind kind;
  // Cumulative state at the previous snapshot, for windowed deltas.
  uint64_t prev_count = 0;
  double prev_sum = 0.0;
  std::vector<uint64_t> prev_buckets;
  std::deque<Point> points;
};

const char* KindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

struct RecorderState {
  mutable std::mutex mutex;  // guards series + history
  TimeseriesRecorder::Options options;
  std::map<std::string, Series> series;
  int64_t last_snapshot_ns = 0;

  std::mutex thread_mutex;
  std::condition_variable cv;
  bool stop_requested = false;
  bool running = false;
  std::thread thread;
  // Serializes Stop() callers so everyone returns after the final snapshot.
  std::mutex stop_mutex;
};

RecorderState& State() {
  static RecorderState* state = new RecorderState;  // leaked; atexit-safe
  return *state;
}

// One snapshot pass: visit the registry, compute per-metric window points,
// evict beyond capacity. Runs on the recorder thread (or a test caller).
void SnapshotOnce(RecorderState* state) {
  std::lock_guard<std::mutex> lock(state->mutex);
  const int64_t now_ns = NowNanos();
  const double interval_s =
      state->last_snapshot_ns == 0
          ? state->options.snapshot_interval_s
          : static_cast<double>(now_ns - state->last_snapshot_ns) / 1e9;
  state->last_snapshot_ns = now_ns;
  const auto push = [](Series* series, Point point) {
    series->points.push_back(point);
    while (series->points.size() > TimeseriesRecorder::kWindowCapacity) {
      series->points.pop_front();
    }
  };

  Registry::Global().VisitMetrics(
      [&](const std::string& name, Counter* counter) {
        Series& series =
            state->series.try_emplace(name, SeriesKind::kCounter)
                .first->second;
        const uint64_t count = counter->Get();
        Point point;
        point.t_ns = now_ns;
        point.interval_s = interval_s;
        // A Reset() between snapshots shows up as count < prev; clamp the
        // window to zero rather than emitting a huge unsigned wraparound.
        point.delta = count >= series.prev_count
                          ? count - series.prev_count
                          : 0;
        point.value = interval_s > 0
                          ? static_cast<double>(point.delta) / interval_s
                          : 0.0;
        series.prev_count = count;
        push(&series, point);
      },
      [&](const std::string& name, Gauge* gauge) {
        Series& series =
            state->series.try_emplace(name, SeriesKind::kGauge)
                .first->second;
        Point point;
        point.t_ns = now_ns;
        point.interval_s = interval_s;
        point.value = gauge->Get();
        push(&series, point);
      },
      [&](const std::string& name, Histogram* histogram) {
        Series& series =
            state->series.try_emplace(name, SeriesKind::kHistogram)
                .first->second;
        const uint64_t count = histogram->Count();
        const double sum = histogram->Sum();
        std::vector<uint64_t> buckets = histogram->BucketSnapshot();
        Point point;
        point.t_ns = now_ns;
        point.interval_s = interval_s;
        if (count >= series.prev_count &&
            series.prev_buckets.size() == buckets.size()) {
          point.delta = count - series.prev_count;
          std::vector<uint64_t> delta_buckets(buckets.size());
          for (size_t i = 0; i < buckets.size(); ++i) {
            delta_buckets[i] = buckets[i] >= series.prev_buckets[i]
                                   ? buckets[i] - series.prev_buckets[i]
                                   : 0;
          }
          if (point.delta > 0) {
            point.value = (sum - series.prev_sum) /
                          static_cast<double>(point.delta);
            point.p50 = QuantileFromBuckets(delta_buckets, 0.50);
            point.p95 = QuantileFromBuckets(delta_buckets, 0.95);
            point.p99 = QuantileFromBuckets(delta_buckets, 0.99);
          }
        } else {
          // First sight of this histogram (or a reset): start a new epoch.
          point.delta = 0;
        }
        series.prev_count = count;
        series.prev_sum = sum;
        series.prev_buckets = std::move(buckets);
        push(&series, point);
      });
}

void RecorderLoop(RecorderState* state) {
  const auto interval =
      std::chrono::duration<double>(state->options.snapshot_interval_s);
  std::unique_lock<std::mutex> lock(state->thread_mutex);
  while (!state->stop_requested) {
    if (state->cv.wait_for(lock, interval,
                           [state] { return state->stop_requested; })) {
      return;  // final snapshot happens in Stop()
    }
    lock.unlock();
    SnapshotOnce(state);
    lock.lock();
  }
}

}  // namespace

TimeseriesRecorder& TimeseriesRecorder::Global() {
  static TimeseriesRecorder* recorder = new TimeseriesRecorder;
  return *recorder;
}

util::Status TimeseriesRecorder::Start(const Options& options) {
  if (options.snapshot_interval_s <= 0.0) {
    return util::Status::InvalidArgument(
        "timeseries snapshot interval must be positive");
  }
  RecorderState& state = State();
  std::lock_guard<std::mutex> stop_lock(state.stop_mutex);
  {
    std::lock_guard<std::mutex> thread_lock(state.thread_mutex);
    if (state.running) {
      return util::Status::FailedPrecondition(
          "timeseries recorder already running");
    }
    state.stop_requested = false;
    state.running = true;
  }
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.options = options;
    state.last_snapshot_ns = 0;
  }
  // Baseline snapshot so the first interval window has a delta anchor.
  SnapshotOnce(&state);
  state.thread = std::thread([&state] { RecorderLoop(&state); });
  HOSR_LOG(Info) << "timeseries recorder started ("
                 << options.snapshot_interval_s << "s interval, "
                 << kWindowCapacity << " windows)";
  return util::Status::Ok();
}

void TimeseriesRecorder::Stop() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> stop_lock(state.stop_mutex);
  {
    std::lock_guard<std::mutex> thread_lock(state.thread_mutex);
    if (!state.running) return;
    state.stop_requested = true;
  }
  state.cv.notify_all();
  if (state.thread.joinable()) state.thread.join();
  SnapshotOnce(&state);  // shutdown-flush: pre-Stop updates land on disk
  std::lock_guard<std::mutex> thread_lock(state.thread_mutex);
  state.running = false;
}

bool TimeseriesRecorder::running() const {
  RecorderState& state = State();
  std::lock_guard<std::mutex> thread_lock(state.thread_mutex);
  return state.running;
}

std::string TimeseriesRecorder::ToJson(std::string_view metric_filter,
                                       size_t max_windows) const {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  const int64_t now_ns = NowNanos();
  std::string json = util::StrFormat(
      "{\n  \"snapshot_interval_s\": %.3f,\n  \"window_capacity\": %zu,\n"
      "  \"series\": {",
      state.options.snapshot_interval_s, kWindowCapacity);
  bool first = true;
  for (const auto& [name, series] : state.series) {
    if (!metric_filter.empty() &&
        name.find(metric_filter) == std::string::npos) {
      continue;
    }
    if (!first) json.push_back(',');
    first = false;
    json.append(util::StrFormat("\n    \"%s\": {\"type\": \"%s\", "
                                "\"points\": [",
                                JsonEscapeString(name).c_str(),
                                KindName(series.kind)));
    size_t start = 0;
    if (max_windows > 0 && series.points.size() > max_windows) {
      start = series.points.size() - max_windows;
    }
    bool first_point = true;
    for (size_t i = start; i < series.points.size(); ++i) {
      const Point& point = series.points[i];
      if (!first_point) json.append(", ");
      first_point = false;
      json.append(util::StrFormat(
          "{\"age_s\": %.3f, \"interval_s\": %.3f",
          static_cast<double>(now_ns - point.t_ns) / 1e9, point.interval_s));
      json.append(", \"value\": ");
      AppendJsonNumber(point.value, &json);
      if (series.kind != SeriesKind::kGauge) {
        json.append(util::StrFormat(
            ", \"delta\": %llu",
            static_cast<unsigned long long>(point.delta)));
      }
      if (series.kind == SeriesKind::kHistogram) {
        json.append(", \"p50\": ");
        AppendJsonNumber(point.p50, &json);
        json.append(", \"p95\": ");
        AppendJsonNumber(point.p95, &json);
        json.append(", \"p99\": ");
        AppendJsonNumber(point.p99, &json);
      }
      json.push_back('}');
    }
    json.append("]}");
  }
  json.append("\n  }\n}\n");
  return json;
}

util::Status TimeseriesRecorder::DumpToFile(const std::string& path) const {
  return util::WriteFileAtomicWithCrc(path, ToJson());
}

void TimeseriesRecorder::SnapshotOnceForTesting() { SnapshotOnce(&State()); }

void TimeseriesRecorder::ResetForTesting() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.series.clear();
  state.last_snapshot_ns = 0;
}

}  // namespace hosr::obs
