#include "obs/reporter.h"

#include <chrono>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"

namespace hosr::obs {

util::Status WriteMetricsJson(const std::string& path) {
  // Atomic so a periodic snapshot interrupted by a crash (or an injected
  // fault) never leaves a half-written JSON file for dashboards to choke on.
  return util::WriteFileAtomic(path, Registry::Global().ToJson());
}

StatsReporter::StatsReporter(Options options) : options_(std::move(options)) {
  if (options_.interval_seconds > 0.0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Snapshot() {
  // Every write has its own temp file, so writers of one path never tear
  // it; the lock keeps this reporter's own snapshots in order, so an older
  // registry dump never lands after a newer one.
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
  if (!options_.metrics_path.empty()) {
    if (auto status = WriteMetricsJson(options_.metrics_path); !status.ok()) {
      HOSR_LOG(Warning) << "metrics snapshot failed: " << status;
    }
  }
}

void StatsReporter::Stop() {
  // Holding stop_mutex_ across join+flush means a Stop() racing another
  // Stop() blocks here until the winner's final snapshot is on disk — a
  // loser returning early would break the shutdown-flush guarantee.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Snapshot();
  stopped_ = true;
}

void StatsReporter::Loop() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;  // final snapshot happens in Stop()
    }
    lock.unlock();
    Snapshot();
    lock.lock();
  }
}

namespace {

struct ArtifactConfig {
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  std::string timeseries_path;
  std::unique_ptr<StatsReporter> interval_reporter;
};

// Leaked so the atexit flush can read it during shutdown.
ArtifactConfig& Artifacts() {
  static ArtifactConfig* config = new ArtifactConfig;
  return *config;
}

std::mutex& ArtifactsMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

void AtExitFlush() {
  {
    // Stop the background reporter before the final dump so the two never
    // write the metrics file concurrently.
    std::unique_ptr<StatsReporter> reporter;
    {
      std::lock_guard<std::mutex> lock(ArtifactsMutex());
      reporter = std::move(Artifacts().interval_reporter);
    }
    if (reporter != nullptr) reporter->Stop();
  }
  FlushArtifacts();
}

}  // namespace

void InitFromFlags(const util::Flags& flags) {
  const std::string log_level = flags.GetString("log_level", "");
  if (!log_level.empty()) {
    if (log_level == "debug") {
      util::SetLogLevel(util::LogLevel::kDebug);
    } else if (log_level == "info") {
      util::SetLogLevel(util::LogLevel::kInfo);
    } else if (log_level == "warning") {
      util::SetLogLevel(util::LogLevel::kWarning);
    } else if (log_level == "error") {
      util::SetLogLevel(util::LogLevel::kError);
    } else {
      HOSR_LOG(Warning) << "flag --log_level=" << log_level
                        << " is not one of debug|info|warning|error; ignored";
    }
  }

  const std::string trace_path = flags.GetString("trace_out", "");
  const std::string metrics_path = flags.GetString("metrics_out", "");
  const double interval = flags.GetDouble("metrics_interval", 0.0);
  const std::string profile_path = flags.GetString("profile_out", "");
  const std::string timeseries_path = flags.GetString("timeseries_out", "");
  if (trace_path.empty() && metrics_path.empty() && profile_path.empty() &&
      timeseries_path.empty()) {
    return;
  }

  SetEnabled(true);
  bool register_atexit = false;
  {
    std::lock_guard<std::mutex> lock(ArtifactsMutex());
    ArtifactConfig& config = Artifacts();
    register_atexit = config.trace_path.empty() &&
                      config.metrics_path.empty() &&
                      config.profile_path.empty() &&
                      config.timeseries_path.empty();
    if (!trace_path.empty()) config.trace_path = trace_path;
    if (!metrics_path.empty()) config.metrics_path = metrics_path;
    if (!profile_path.empty()) config.profile_path = profile_path;
    if (!timeseries_path.empty()) config.timeseries_path = timeseries_path;
    if (interval > 0.0 && !metrics_path.empty() &&
        config.interval_reporter == nullptr) {
      StatsReporter::Options options;
      options.interval_seconds = interval;
      options.metrics_path = metrics_path;
      config.interval_reporter = std::make_unique<StatsReporter>(options);
    }
  }
  if (register_atexit) std::atexit(AtExitFlush);

  if (!profile_path.empty()) {
    Profiler::Options options;
    options.hz = static_cast<int>(flags.GetInt("profile_hz", 99));
    if (auto status = Profiler::Global().Start(options); !status.ok()) {
      HOSR_LOG(Warning) << "could not arm --profile_out profiler: "
                        << status;
    }
  }
  if (!timeseries_path.empty() && !TimeseriesRecorder::Global().running()) {
    TimeseriesRecorder::Options options;
    options.snapshot_interval_s =
        flags.GetDouble("timeseries_interval", 1.0);
    if (auto status = TimeseriesRecorder::Global().Start(options);
        !status.ok()) {
      HOSR_LOG(Warning) << "could not start --timeseries_out recorder: "
                        << status;
    }
  }
}

void FlushArtifacts() {
  std::string trace_path, metrics_path, profile_path, timeseries_path;
  {
    std::lock_guard<std::mutex> lock(ArtifactsMutex());
    trace_path = Artifacts().trace_path;
    metrics_path = Artifacts().metrics_path;
    profile_path = Artifacts().profile_path;
    timeseries_path = Artifacts().timeseries_path;
  }
  // Profiler first: stopping it is what finalizes the sample set, and only
  // a running session writes — a second flush (explicit + atexit) must not
  // overwrite the artifact with an empty re-collection.
  if (!profile_path.empty() && Profiler::Global().running()) {
    const Profile profile = Profiler::Global().StopAndCollect();
    if (auto status = util::WriteFileAtomic(profile_path, profile.collapsed);
        status.ok()) {
      HOSR_LOG(Info) << "wrote collapsed stacks to " << profile_path << " ("
                     << profile.samples << " samples)";
    } else {
      HOSR_LOG(Warning) << "profile dump failed: " << status;
    }
    const std::string summary_path = profile_path + ".summary.json";
    if (auto status =
            util::WriteFileAtomic(summary_path, profile.SummaryJson());
        !status.ok()) {
      HOSR_LOG(Warning) << "profile summary dump failed: " << status;
    }
  }
  if (!timeseries_path.empty()) {
    TimeseriesRecorder::Global().Stop();  // final snapshot; idempotent
    if (auto status = TimeseriesRecorder::Global().DumpToFile(
            timeseries_path);
        status.ok()) {
      HOSR_LOG(Info) << "wrote timeseries history to " << timeseries_path;
    } else {
      HOSR_LOG(Warning) << "timeseries dump failed: " << status;
    }
  }
  if (!metrics_path.empty()) {
    if (auto status = WriteMetricsJson(metrics_path); status.ok()) {
      HOSR_LOG(Info) << "wrote metrics to " << metrics_path;
    } else {
      HOSR_LOG(Warning) << "metrics dump failed: " << status;
    }
  }
  if (!trace_path.empty()) {
    if (const uint64_t dropped = DroppedSpanCount(); dropped > 0) {
      HOSR_LOG(Warning) << "trace ring buffers dropped " << dropped
                        << " spans (oldest-first)";
    }
    if (auto status = WriteTraceJson(trace_path); status.ok()) {
      HOSR_LOG(Info) << "wrote trace to " << trace_path
                     << " (open in chrome://tracing or ui.perfetto.dev)";
    } else {
      HOSR_LOG(Warning) << "trace dump failed: " << status;
    }
  }
}

}  // namespace hosr::obs
