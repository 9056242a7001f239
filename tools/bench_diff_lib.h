// Core comparison logic for the bench_diff regression gate, split from the
// CLI so tests can drive it on in-memory metric dumps (tests/toolkit_test.cc
// covers it). The binary in bench_diff.cc only handles flag parsing and
// directory IO.
#ifndef HOSR_TOOLS_BENCH_DIFF_LIB_H_
#define HOSR_TOOLS_BENCH_DIFF_LIB_H_

#include <map>
#include <string>
#include <vector>

namespace hosr::tools {

enum class Direction { kHigherIsBetter, kLowerIsBetter, kUnknown };

// Infers the regression direction from the metric name using the units
// convention in docs/OBSERVABILITY.md: throughput-like names regress when
// they drop, latency-like names regress when they rise. A cost spent to
// reach a target, `<cost>_to_<target>` (epochs_to_recall95), is checked
// first and is lower-is-better whatever its target is named.
Direction DirectionFor(const std::string& name);

// Pulls every {"type": "gauge", "value": V} entry out of a registry dump
// without a full JSON parser: the emitter (Registry::ToJson) writes one key
// per entry as `"name": {"type": "gauge", "value": N}`.
std::map<std::string, double> ExtractGauges(const std::string& json);

struct DiffOptions {
  double threshold_pct = 10.0;
  // When non-empty, only gauges whose name contains this substring are
  // compared (and only those can be reported missing).
  std::string filter;
};

struct GaugeDelta {
  std::string file;
  std::string name;
  double baseline = 0.0;
  double candidate = 0.0;
  double delta_pct = 0.0;
  Direction direction = Direction::kUnknown;
  bool regressed = false;
};

struct DiffResult {
  std::vector<GaugeDelta> deltas;
  // Baseline metric files with no candidate counterpart.
  std::vector<std::string> missing_files;
  // Gauges ("file name" pairs) present in the baseline dump but absent from
  // the candidate's. A metric silently vanishing from a bench is a gate
  // failure, not a skip: it usually means the bench lost coverage.
  std::vector<GaugeDelta> missing_gauges;
  size_t compared = 0;
  size_t regressions = 0;

  bool failed() const {
    return regressions > 0 || !missing_files.empty() || !missing_gauges.empty();
  }
};

// Compares two {file name -> metrics JSON} maps. Every baseline file and
// every baseline gauge (matching options.filter) must exist in the
// candidate; anything missing lands in missing_files / missing_gauges and
// makes failed() true. Extra candidate files or gauges are ignored.
DiffResult DiffMetrics(const std::map<std::string, std::string>& baseline,
                       const std::map<std::string, std::string>& candidate,
                       const DiffOptions& options);

}  // namespace hosr::tools

#endif  // HOSR_TOOLS_BENCH_DIFF_LIB_H_
