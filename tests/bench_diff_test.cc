// Tests for the bench_diff regression-gate core (tools/bench_diff_lib.h):
// gauge extraction from registry dumps, direction inference, threshold
// gating, and — the part that used to silently skip — explicit failure on
// metrics or whole metric files missing from the candidate directory.
#include "bench_diff_lib.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace hosr::tools {
namespace {

// Matches the Registry::ToJson layout run_benches.sh leaves on disk:
// gauges mixed with counters/histograms under a "metrics" object.
std::string Dump(const std::map<std::string, double>& gauges) {
  std::string json =
      "{\"metrics\": {\"bench/iters\": {\"type\": \"counter\", "
      "\"value\": 7}";
  for (const auto& [name, value] : gauges) {
    json += ", \"" + name + "\": {\"type\": \"gauge\", \"value\": " +
            std::to_string(value) + "}";
  }
  json += "}}";
  return json;
}

TEST(BenchDiffTest, ExtractGaugesSkipsNonGaugeMetrics) {
  const auto gauges = Dump({{"bench/x_qps", 125.5}, {"bench/y_ms", 3.0}});
  const auto extracted = ExtractGauges(gauges);
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_DOUBLE_EQ(extracted.at("bench/x_qps"), 125.5);
  EXPECT_DOUBLE_EQ(extracted.at("bench/y_ms"), 3.0);
  EXPECT_EQ(extracted.count("bench/iters"), 0u);
}

TEST(BenchDiffTest, DirectionInferredFromName) {
  EXPECT_EQ(DirectionFor("serve/replay_qps"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionFor("eval/ndcg_at_10"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionFor("net/latency_p99"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("train/epoch_seconds"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("bench/mystery"), Direction::kUnknown);
  // A cost to reach a target falls when things improve, even when the
  // target's name (recall) would read higher-is-better.
  EXPECT_EQ(DirectionFor("bench/train_throughput/train_cpu_s_to_recall95"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("bench/train_throughput/epochs_to_recall95"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("bench/train_throughput/best_recall_at_20"),
            Direction::kHigherIsBetter);
}

TEST(BenchDiffTest, IdenticalDirsPassWithNoFailures) {
  const std::map<std::string, std::string> dir = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})}};
  const auto result = DiffMetrics(dir, dir, DiffOptions());
  EXPECT_EQ(result.compared, 1u);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_FALSE(result.failed());
}

TEST(BenchDiffTest, ThroughputDropBeyondThresholdRegresses) {
  const std::map<std::string, std::string> baseline = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})}};
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"bench/a_qps", 80.0}})}};
  DiffOptions options;
  options.threshold_pct = 10.0;
  const auto result = DiffMetrics(baseline, candidate, options);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_TRUE(result.deltas[0].regressed);
  EXPECT_NEAR(result.deltas[0].delta_pct, -20.0, 1e-9);
  EXPECT_EQ(result.regressions, 1u);
  EXPECT_TRUE(result.failed());
  // A 20% drop within a 25% tolerance passes.
  options.threshold_pct = 25.0;
  EXPECT_FALSE(DiffMetrics(baseline, candidate, options).failed());
}

TEST(BenchDiffTest, LatencyRiseRegressesAndUnknownNeverGates) {
  const std::map<std::string, std::string> baseline = {
      {"a.json", Dump({{"bench/a_p99", 10.0}, {"bench/mystery", 1.0}})}};
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"bench/a_p99", 20.0}, {"bench/mystery", 50.0}})}};
  const auto result = DiffMetrics(baseline, candidate, DiffOptions());
  EXPECT_EQ(result.compared, 2u);
  EXPECT_EQ(result.regressions, 1u);
  for (const auto& delta : result.deltas) {
    EXPECT_EQ(delta.regressed, delta.name == "bench/a_p99");
  }
}

TEST(BenchDiffTest, GaugeMissingFromCandidateIsAFailure) {
  const std::map<std::string, std::string> baseline = {
      {"a.json", Dump({{"bench/a_qps", 100.0}, {"bench/b_qps", 50.0}})}};
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})}};
  const auto result = DiffMetrics(baseline, candidate, DiffOptions());
  EXPECT_EQ(result.compared, 1u);
  EXPECT_EQ(result.regressions, 0u);
  ASSERT_EQ(result.missing_gauges.size(), 1u);
  EXPECT_EQ(result.missing_gauges[0].file, "a.json");
  EXPECT_EQ(result.missing_gauges[0].name, "bench/b_qps");
  EXPECT_DOUBLE_EQ(result.missing_gauges[0].baseline, 50.0);
  EXPECT_TRUE(result.failed());
}

TEST(BenchDiffTest, FileMissingFromCandidateIsAFailure) {
  const std::map<std::string, std::string> baseline = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})},
      {"b.json", Dump({{"bench/b_qps", 50.0}})}};
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})}};
  const auto result = DiffMetrics(baseline, candidate, DiffOptions());
  EXPECT_EQ(result.compared, 1u);
  ASSERT_EQ(result.missing_files.size(), 1u);
  EXPECT_EQ(result.missing_files[0], "b.json");
  EXPECT_TRUE(result.failed());
}

TEST(BenchDiffTest, ExtraCandidateGaugesAndFilesAreIgnored) {
  const std::map<std::string, std::string> baseline = {
      {"a.json", Dump({{"bench/a_qps", 100.0}})}};
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"bench/a_qps", 100.0}, {"bench/new_qps", 9.0}})},
      {"new.json", Dump({{"bench/other_qps", 1.0}})}};
  const auto result = DiffMetrics(baseline, candidate, DiffOptions());
  EXPECT_EQ(result.compared, 1u);
  EXPECT_FALSE(result.failed());
}

TEST(BenchDiffTest, FilterScopesBothComparisonAndMissingness) {
  const std::map<std::string, std::string> baseline = {
      {"a.json",
       Dump({{"serve/replay_qps", 100.0}, {"train/epoch_seconds", 4.0}})}};
  // Candidate lost train/epoch_seconds entirely, but a filter scoped to
  // serve/ must not fail on it — the operator asked only about serve.
  const std::map<std::string, std::string> candidate = {
      {"a.json", Dump({{"serve/replay_qps", 101.0}})}};
  DiffOptions options;
  options.filter = "serve/";
  const auto scoped = DiffMetrics(baseline, candidate, options);
  EXPECT_EQ(scoped.compared, 1u);
  EXPECT_TRUE(scoped.missing_gauges.empty());
  EXPECT_FALSE(scoped.failed());
  // Without the filter the lost gauge fails the gate.
  EXPECT_TRUE(DiffMetrics(baseline, candidate, DiffOptions()).failed());
}

}  // namespace
}  // namespace hosr::tools
