// Microbenchmarks for the hosr::kernels dispatch layer (docs/PERFORMANCE.md):
// scalar vs best-available table for axpy, axpy2, dot, the fused
// score-GEMV and the SpMM row gather, at the dims the models actually use.
// Besides the google benchmark report, the headline scalar-vs-SIMD speedups
// at d=64 are published as gauges so `run_benches.sh` captures them in
// bench_metrics/kernels.json — the perf-trajectory artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace hosr;

const kernels::KernelTable& Table(int64_t level) {
  return level == 0 ? kernels::Scalar() : kernels::Best();
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.Gaussian();
  return v;
}

// Accumulator coefficients are tiny so y never overflows across millions of
// iterations; FMA throughput does not depend on the operand values.
constexpr float kTinyA = 1e-30f;

void BM_Axpy(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const auto x = RandomVec(d, 1);
  auto y = RandomVec(d, 2);
  for (auto _ : state) {
    kern.axpy(d, kTinyA, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_Axpy)->ArgsProduct({{0, 1}, {8, 64, 256}});

void BM_Axpy2(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const auto x0 = RandomVec(d, 3);
  const auto x1 = RandomVec(d, 4);
  auto y = RandomVec(d, 5);
  for (auto _ : state) {
    kern.axpy2(d, kTinyA, x0.data(), kTinyA, x1.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_Axpy2)->ArgsProduct({{0, 1}, {8, 64, 256}});

void BM_Dot(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const auto a = RandomVec(d, 6);
  const auto b = RandomVec(d, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern.dot(d, a.data(), b.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_Dot)->ArgsProduct({{0, 1}, {8, 64, 256}});

// The serving GEMV: score one user against a block of items (the engine's
// per-block fused scoring pass, items = EngineOptions::item_block shape).
void BM_ScoreGemv(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  constexpr size_t kItems = 512;
  const auto u = RandomVec(d, 8);
  const auto rows = RandomVec(kItems * d, 9);
  const auto bias = RandomVec(kItems, 10);
  std::vector<float> out(kItems);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern.score_block(kItems, d, u.data(), rows.data(),
                                              bias.data(), out.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kItems * d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_ScoreGemv)->ArgsProduct({{0, 1}, {8, 64, 256}});

// One SpMM output row: 32 neighbours of a 1024-row dense table, the
// register-resident gather under graph::Spmm.
constexpr size_t kSpmmNeighbours = 32;
constexpr size_t kSpmmDenseRows = 1024;

struct SpmmRowInput {
  std::vector<float> values;
  std::vector<uint32_t> cols;
  std::vector<float> dense;
};

SpmmRowInput MakeSpmmRowInput(size_t d) {
  SpmmRowInput input;
  input.values.assign(kSpmmNeighbours, kTinyA);
  util::Rng rng(14);
  for (size_t e = 0; e < kSpmmNeighbours; ++e) {
    input.cols.push_back(static_cast<uint32_t>(rng.UniformInt(kSpmmDenseRows)));
  }
  input.dense = RandomVec(kSpmmDenseRows * d, 15);
  return input;
}

void BM_SpmmRow(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const SpmmRowInput input = MakeSpmmRowInput(d);
  std::vector<float> out(d);
  for (auto _ : state) {
    kern.spmm_row(kSpmmNeighbours, input.values.data(), input.cols.data(),
                  nullptr, input.dense.data(), d, /*accumulate=*/false,
                  out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSpmmNeighbours * d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_SpmmRow)->ArgsProduct({{0, 1}, {8, 64, 256}});

// --- headline speedup gauges --------------------------------------------------

// Ops/second for `body` (which performs `ops_per_call` scalar ops), measured
// over ~80ms after warmup. Hand-rolled so the speedup ratios land in the
// metrics registry and thus in bench_metrics/kernels.json.
template <typename Fn>
double MeasureOpsPerSec(size_t ops_per_call, Fn&& body) {
  for (int i = 0; i < 1000; ++i) body();  // warmup
  size_t calls = 0;
  const util::WallTimer timer;
  do {
    for (int i = 0; i < 2000; ++i) body();
    calls += 2000;
  } while (timer.ElapsedMillis() < 80.0);
  return static_cast<double>(calls) * static_cast<double>(ops_per_call) /
         (timer.ElapsedMillis() / 1000.0);
}

void PublishSpeedupGauges() {
  const auto& scalar = kernels::Scalar();
  const auto& best = kernels::Best();
  constexpr size_t d = 64;
  constexpr size_t kItems = 512;
  const auto x = RandomVec(d, 11);
  auto y = RandomVec(d, 12);
  const auto rows = RandomVec(kItems * d, 13);
  std::vector<float> out(kItems);

  const double axpy_scalar = MeasureOpsPerSec(
      d, [&] { scalar.axpy(d, kTinyA, x.data(), y.data()); });
  const double axpy_best =
      MeasureOpsPerSec(d, [&] { best.axpy(d, kTinyA, x.data(), y.data()); });
  float sink = 0.0f;
  const double dot_scalar = MeasureOpsPerSec(
      d, [&] { sink += scalar.dot(d, x.data(), y.data()); });
  const double dot_best =
      MeasureOpsPerSec(d, [&] { sink += best.dot(d, x.data(), y.data()); });
  const double gemv_scalar = MeasureOpsPerSec(kItems * d, [&] {
    sink += scalar.score_block(kItems, d, x.data(), rows.data(), nullptr,
                               out.data());
  });
  const double gemv_best = MeasureOpsPerSec(kItems * d, [&] {
    sink += best.score_block(kItems, d, x.data(), rows.data(), nullptr,
                             out.data());
  });
  // spmm_row against the axpy2 pair chain whose bits it keeps, which loads
  // and stores the output row once per pair of neighbours.
  const SpmmRowInput spmm = MakeSpmmRowInput(d);
  const auto spmm_row = [&](const kernels::KernelTable& kern) {
    return MeasureOpsPerSec(kSpmmNeighbours * d, [&] {
      kern.spmm_row(kSpmmNeighbours, spmm.values.data(), spmm.cols.data(),
                    nullptr, spmm.dense.data(), d, /*accumulate=*/false,
                    out.data());
    });
  };
  const double spmm_row_scalar = spmm_row(scalar);
  const double spmm_row_best = spmm_row(best);
  const double pair_chain_best = MeasureOpsPerSec(kSpmmNeighbours * d, [&] {
    std::fill(out.begin(), out.begin() + d, 0.0f);
    for (size_t e = 0; e < kSpmmNeighbours; e += 2) {
      best.axpy2(d, spmm.values[e], spmm.dense.data() + spmm.cols[e] * d,
                 spmm.values[e + 1], spmm.dense.data() + spmm.cols[e + 1] * d,
                 out.data());
    }
  });
  sink += out[0];
  benchmark::DoNotOptimize(sink);

  HOSR_GAUGE("kernels/bench/axpy_d64_scalar_gops").Set(axpy_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/axpy_d64_best_gops").Set(axpy_best / 1e9);
  HOSR_GAUGE("kernels/bench/axpy_d64_speedup").Set(axpy_best / axpy_scalar);
  HOSR_GAUGE("kernels/bench/dot_d64_scalar_gops").Set(dot_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/dot_d64_best_gops").Set(dot_best / 1e9);
  HOSR_GAUGE("kernels/bench/dot_d64_speedup").Set(dot_best / dot_scalar);
  HOSR_GAUGE("kernels/bench/gemv_d64_scalar_gops").Set(gemv_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/gemv_d64_best_gops").Set(gemv_best / 1e9);
  HOSR_GAUGE("kernels/bench/gemv_d64_speedup").Set(gemv_best / gemv_scalar);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_scalar_gops")
      .Set(spmm_row_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_best_gops").Set(spmm_row_best / 1e9);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_speedup")
      .Set(spmm_row_best / spmm_row_scalar);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_pair_chain_best_gops")
      .Set(pair_chain_best / 1e9);
}

}  // namespace

// Same flag split as micro_complexity: non---benchmark_* flags go to the
// observability layer (--metrics_out= writes bench_metrics/kernels.json).
int main(int argc, char** argv) {
  std::vector<char*> benchmark_args{argv[0]};
  std::vector<char*> hosr_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (hosr::util::StartsWith(argv[i], "--benchmark_")) {
      benchmark_args.push_back(argv[i]);
    } else {
      hosr_args.push_back(argv[i]);
    }
  }
  hosr::obs::InitFromFlags(hosr::util::Flags::Parse(
      static_cast<int>(hosr_args.size()), hosr_args.data()));
  // Resolve dispatch once up front so kernels/dispatch_level lands in the
  // metrics artifact alongside the speedups.
  (void)hosr::kernels::Active();
  int benchmark_argc = static_cast<int>(benchmark_args.size());
  benchmark::Initialize(&benchmark_argc, benchmark_args.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  PublishSpeedupGauges();
  benchmark::Shutdown();
  return 0;
}
