#ifndef HOSR_OBS_REPORTER_H_
#define HOSR_OBS_REPORTER_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "util/flags.h"
#include "util/status.h"

namespace hosr::obs {

// Writes Registry::Global().ToJson() to `path`.
util::Status WriteMetricsJson(const std::string& path);

// Snapshots the metrics registry on a cadence. Two usage modes:
//  * interval mode — `interval_seconds > 0` starts a background thread that
//    calls Snapshot() every interval until Stop()/destruction;
//  * epoch mode — `interval_seconds <= 0` starts no thread; the owner calls
//    Snapshot() itself (e.g. once per training epoch).
// Every snapshot rewrites `metrics_path` (when set) so the on-disk JSON is
// always the latest state.
//
// Shutdown-flush guarantee: any Stop() call — including one racing another
// Stop() or the destructor — returns only after a final Snapshot() that
// started at or after the Stop() call has completed. Metric updates made
// before Stop() is invoked are therefore always present in the on-disk
// artifact once Stop() returns; no samples are lost to shutdown.
class StatsReporter {
 public:
  struct Options {
    double interval_seconds = 0.0;
    std::string metrics_path;
  };

  explicit StatsReporter(Options options);
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  // Safe to call from any thread; concurrent snapshots serialize on an
  // internal mutex so two writers never race on the same temp file.
  void Snapshot();

  // Joins the background thread and writes a final snapshot (idempotent and
  // safe to call concurrently: every caller blocks until that flush is
  // done, not just the first one).
  void Stop();

 private:
  void Loop();

  Options options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  // Serializes the join-then-flush sequence across concurrent Stop() calls.
  std::mutex stop_mutex_;
  bool stopped_ = false;
  // Serializes Snapshot() bodies (atomic-write temp files share a name).
  std::mutex snapshot_mutex_;
  std::thread thread_;
};

// One-call wiring for binaries:
//   --metrics_out=FILE        dump the metrics registry JSON at process exit
//   --trace_out=FILE          dump the Chrome trace JSON at process exit
//   --metrics_interval=SECS   also rewrite --metrics_out every SECS seconds
//   --profile_out=FILE        run the sampling CPU profiler for the whole
//                             process lifetime; write collapsed stacks to
//                             FILE and a JSON summary to FILE.summary.json
//                             at exit
//   --profile_hz=N            profiler sampling rate (default 99)
//   --timeseries_out=FILE     run the timeseries recorder; dump the CRC-
//                             footed windowed-history JSON to FILE at exit
//   --timeseries_interval=S   recorder snapshot cadence (default 1.0)
//   --log_level=debug|info|warning|error
// Enables span/histogram capture (SetEnabled(true)) when any output path is
// set, and registers an atexit hook that stops the interval reporter,
// profiler, and recorder, then writes every configured artifact.
void InitFromFlags(const util::Flags& flags);

// Writes whatever InitFromFlags configured, immediately (also runs at exit).
void FlushArtifacts();

}  // namespace hosr::obs

#endif  // HOSR_OBS_REPORTER_H_
