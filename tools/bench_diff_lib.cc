#include "bench_diff_lib.h"

#include <cmath>
#include <cstdlib>

namespace hosr::tools {

Direction DirectionFor(const std::string& name) {
  static const char* kHigher[] = {"_qps",   "_gops",  "_speedup", "_per_sec",
                                  "_rate",  "_flops", "recall",   "_map",
                                  "ndcg",   "precision"};
  static const char* kLower[] = {"_us",      "_ms",  "_ns",  "_seconds",
                                 "_p50",     "_p95", "_p99", "latency",
                                 "_penalty"};
  const std::string leaf = name.substr(name.rfind('/') + 1);
  if (leaf.find("_to_") != std::string::npos) {
    return Direction::kLowerIsBetter;
  }
  for (const char* suffix : kHigher) {
    if (name.find(suffix) != std::string::npos) {
      return Direction::kHigherIsBetter;
    }
  }
  for (const char* suffix : kLower) {
    if (name.find(suffix) != std::string::npos) {
      return Direction::kLowerIsBetter;
    }
  }
  return Direction::kUnknown;
}

std::map<std::string, double> ExtractGauges(const std::string& json) {
  std::map<std::string, double> gauges;
  const std::string marker = "{\"type\": \"gauge\", \"value\": ";
  size_t pos = 0;
  while ((pos = json.find(marker, pos)) != std::string::npos) {
    // The gauge's name is the quoted key immediately before the marker:
    // ... "kernels/bench/dot_d64_best_gops": {"type": "gauge", ...
    const size_t colon = json.rfind(':', pos);
    if (colon == std::string::npos) break;
    const size_t name_end = json.rfind('"', colon);
    const size_t name_begin =
        name_end == std::string::npos ? std::string::npos
                                      : json.rfind('"', name_end - 1);
    if (name_begin == std::string::npos) {
      pos += marker.size();
      continue;
    }
    const std::string name =
        json.substr(name_begin + 1, name_end - name_begin - 1);
    const double value = std::strtod(json.c_str() + pos + marker.size(),
                                     nullptr);
    gauges[name] = value;
    pos += marker.size();
  }
  return gauges;
}

DiffResult DiffMetrics(const std::map<std::string, std::string>& baseline,
                       const std::map<std::string, std::string>& candidate,
                       const DiffOptions& options) {
  DiffResult result;
  for (const auto& [file, baseline_json] : baseline) {
    const auto candidate_it = candidate.find(file);
    if (candidate_it == candidate.end()) {
      result.missing_files.push_back(file);
      continue;
    }
    const auto baseline_gauges = ExtractGauges(baseline_json);
    const auto candidate_gauges = ExtractGauges(candidate_it->second);
    for (const auto& [name, base_value] : baseline_gauges) {
      if (!options.filter.empty() &&
          name.find(options.filter) == std::string::npos) {
        continue;
      }
      GaugeDelta delta;
      delta.file = file;
      delta.name = name;
      delta.baseline = base_value;
      delta.direction = DirectionFor(name);
      const auto it = candidate_gauges.find(name);
      if (it == candidate_gauges.end()) {
        result.missing_gauges.push_back(delta);
        continue;
      }
      delta.candidate = it->second;
      ++result.compared;
      delta.delta_pct =
          base_value != 0.0
              ? (delta.candidate - base_value) / std::fabs(base_value) * 100.0
              : (delta.candidate == 0.0 ? 0.0 : 100.0);
      if (delta.direction == Direction::kHigherIsBetter) {
        delta.regressed = delta.delta_pct < -options.threshold_pct;
      } else if (delta.direction == Direction::kLowerIsBetter) {
        delta.regressed = delta.delta_pct > options.threshold_pct;
      }
      if (delta.regressed) ++result.regressions;
      result.deltas.push_back(delta);
    }
  }
  return result;
}

}  // namespace hosr::tools
