#ifndef HOSR_OBS_TIMESERIES_H_
#define HOSR_OBS_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace hosr::obs {

// Windowed metric history: a background recorder snapshots every metric in
// Registry::Global() on a wall-clock cadence and keeps a fixed-capacity
// ring of per-window points per metric, so "how did p99 move over the last
// five minutes" is answerable from inside the process (/timeseriez) without
// external scrape infrastructure.
//
// Per window:
//   counters   -> delta since the previous snapshot plus rate/sec
//   gauges     -> the value at snapshot time
//   histograms -> observation delta, windowed mean, and p50/p95/p99
//                 estimated from the window's bucket-count deltas via the
//                 shared QuantileFromBuckets helper
//
// The recorder reads the registry through its lock-free metric accessors
// (one relaxed load per atomic), so recording adds nothing to the hot
// paths being measured. Memory is bounded: kWindowCapacity points per
// metric, oldest evicted first.
class TimeseriesRecorder {
 public:
  struct Options {
    double snapshot_interval_s = 1.0;
  };

  // Points kept per series: 5 minutes of 1s windows.
  static constexpr size_t kWindowCapacity = 300;

  static TimeseriesRecorder& Global();

  // Starts the recorder thread. FailedPrecondition if already running.
  util::Status Start(const Options& options);

  // Stops and joins the recorder, taking one final snapshot so updates made
  // just before shutdown land in the history (idempotent).
  void Stop();

  bool running() const;

  // JSON rendering of the history:
  //   {"snapshot_interval_s": ..., "window_capacity": N,
  //    "series": {"name": {"type": ..., "points": [...]}, ...}}
  // `metric_filter` (substring match) limits which series render;
  // `max_windows` > 0 limits each series to its newest N points. Points are
  // oldest-first; each carries "age_s" (seconds before the render call).
  std::string ToJson(std::string_view metric_filter = {},
                     size_t max_windows = 0) const;

  // Writes ToJson() via WriteFileAtomicWithCrc (the CRC-footed artifact
  // format shared with flight dumps) — the shutdown dump for
  // --timeseries_out.
  util::Status DumpToFile(const std::string& path) const;

  // Takes one snapshot immediately on the calling thread — lets tests
  // build deterministic windows without a running recorder thread.
  void SnapshotOnceForTesting();

  // Drops all history and per-metric delta state (not the options).
  void ResetForTesting();

 private:
  TimeseriesRecorder() = default;
};

}  // namespace hosr::obs

#endif  // HOSR_OBS_TIMESERIES_H_
