// Microbenchmarks for the hosr::kernels dispatch layer (docs/PERFORMANCE.md):
// scalar vs best-available table for axpy, axpy2, dot, the serving
// engine's half-precision GEMV and the SpMM row gather, at the dims the
// models actually use.
// Besides the google benchmark report, the headline scalar-vs-SIMD speedups
// at d=64 are published as gauges so `run_benches.sh` captures them in
// bench_metrics/kernels.json — the perf-trajectory artifact — together
// with gemm_tile's GFLOP/s at the HOSR training shapes for the 8- and
// 16-lane tiles, and the CPU and wall time of an empty util::ParallelFor
// fork while the pool's workers sleep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
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

// score_half's input: rows.size() / d rows (a multiple of its block) of
// random values, and zero radii. The layout does not change the work.
struct HalfTable {
  std::vector<uint16_t> half;
  std::vector<float> radius;
  std::vector<float> lower;
  std::vector<float> upper;

  HalfTable(const std::vector<float>& rows, size_t items)
      : half(rows.size()), radius(items), lower(items), upper(items) {
    for (size_t i = 0; i < rows.size(); ++i) {
      half[i] = kernels::FloatToHalf(rows[i]);
    }
  }

  void Score(const kernels::KernelTable& kern, size_t d, const float* u) {
    kern.score_half(radius.size() / kernels::kHalfBlockRows, d, u,
                    half.data(), nullptr, radius.data(), 1.0f, 0.0f,
                    lower.data(), upper.data());
  }
};

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

// The serving engine's first pass: score one user against a block of
// half-precision item rows (the engine's per-block pass).
void BM_ScoreHalf(benchmark::State& state) {
  const auto& kern = Table(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  constexpr size_t kItems = 512;
  const auto u = RandomVec(d, 8);
  HalfTable table(RandomVec(kItems * d, 9), kItems);
  for (auto _ : state) {
    table.Score(kern, d, u.data());
    benchmark::DoNotOptimize(table.upper.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kItems * d));
  state.SetLabel(kern.name);
}
BENCHMARK(BM_ScoreHalf)->ArgsProduct({{0, 1}, {8, 64, 256}});

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
  HalfTable half_table(RandomVec(kItems * d, 13), kItems);
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
  const double half_gemv_scalar = MeasureOpsPerSec(kItems * d, [&] {
    half_table.Score(scalar, d, x.data());
    sink += half_table.upper[0];
  });
  const double half_gemv_best = MeasureOpsPerSec(kItems * d, [&] {
    half_table.Score(best, d, x.data());
    sink += half_table.upper[0];
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
  HOSR_GAUGE("kernels/bench/half_gemv_d64_scalar_gops")
      .Set(half_gemv_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/half_gemv_d64_best_gops")
      .Set(half_gemv_best / 1e9);
  HOSR_GAUGE("kernels/bench/half_gemv_d64_speedup")
      .Set(half_gemv_best / half_gemv_scalar);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_scalar_gops")
      .Set(spmm_row_scalar / 1e9);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_best_gops").Set(spmm_row_best / 1e9);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_speedup")
      .Set(spmm_row_best / spmm_row_scalar);
  HOSR_GAUGE("kernels/bench/spmm_row_d64_pair_chain_best_gops")
      .Set(pair_chain_best / 1e9);
}

// C = A * B at 2116 x 64 x 64, the HOSR propagation GEMM at YelpLike 0.2
// and batch 512 (NN), and A^T * G at 64 x 2116 x 64, its weight gradient
// (TN), tiled by `kern`'s gemm_tile on one thread as tensor::Gemm tiles
// them: the best GFLOP/s of 9 runs of about 30 ms, since other load on
// the host only ever slows a run.
double GemmTileGflops(const kernels::KernelTable& kern, bool weight_grad) {
  constexpr size_t kRows = 2116;
  constexpr size_t kDim = 64;
  const size_t m = weight_grad ? kDim : kRows;
  const size_t k = weight_grad ? kRows : kDim;
  const size_t n = kDim;
  const auto a = RandomVec(m * k, 16);  // A^T is k x m, read in place
  const auto b = RandomVec(k * n, 17);
  std::vector<float> c(m * n);
  const size_t a_row_stride = weight_grad ? 1 : k;
  const size_t a_k_stride = weight_grad ? m : 1;
  const auto gemm = [&] {
    for (size_t i0 = 0; i0 < m; i0 += kern.gemm_tile_rows) {
      for (size_t j0 = 0; j0 < n; j0 += kern.gemm_tile_cols) {
        kern.gemm_tile(std::min(kern.gemm_tile_rows, m - i0),
                       std::min(kern.gemm_tile_cols, n - j0), k, 1.0f,
                       a.data() + i0 * a_row_stride, a_row_stride, a_k_stride,
                       b.data() + j0, n, 0.0f, c.data() + i0 * n + j0, n);
      }
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  };
  for (int i = 0; i < 20; ++i) gemm();  // warmup
  std::vector<double> gflops;
  for (int run = 0; run < 9; ++run) {
    size_t calls = 0;
    const util::WallTimer timer;
    do {
      for (int i = 0; i < 20; ++i) gemm();
      calls += 20;
    } while (timer.ElapsedMillis() < 30.0);
    gflops.push_back(2.0 * static_cast<double>(m * n * k * calls) /
                     timer.ElapsedSeconds() / 1e9);
  }
  return *std::max_element(gflops.begin(), gflops.end());
}

struct ForkCost {
  double cpu_us = 0.0;   // process CPU, every thread
  double wall_us = 0.0;  // the caller's wall time in the call
};

// One empty util::ParallelFor of `chunks` one-item chunks after a 2 ms
// sleep, which leaves the pool's workers asleep, 200 times; minus the same
// loop without the call. The least of 7 such differences, and the wall
// time of that run.
ForkCost MeasureFork(size_t chunks) {
  constexpr int kCalls = 200;
  const auto loop = [&](bool fork, double* wall_us) {
    const double cpu_before = util::ProcessCpuSeconds();
    for (int i = 0; i < kCalls; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (!fork) continue;
      const util::WallTimer timer;
      util::ParallelFor(0, chunks, [](size_t, size_t) {}, /*min_chunk=*/1);
      *wall_us += timer.ElapsedSeconds() * 1e6;
    }
    return util::ProcessCpuSeconds() - cpu_before;
  };
  ForkCost best;
  for (int run = 0; run < 7; ++run) {
    double wall = 0.0;
    const double with_fork = loop(true, &wall);
    const double without = loop(false, &wall);
    const ForkCost cost{(with_fork - without) / kCalls * 1e6, wall / kCalls};
    if (run == 0 || cost.cpu_us < best.cpu_us) best = cost;
  }
  return best;
}

void PublishGemmAndForkGauges() {
  struct Tile {
    const kernels::KernelTable* table;
    const char* lanes;
  };
  std::vector<Tile> tiles;
  if (const kernels::KernelTable* eight = kernels::EightLaneTable()) {
    tiles.push_back({eight, "8lane"});
    if (&kernels::Best() != eight) tiles.push_back({&kernels::Best(), "16lane"});
  }
  auto& registry = obs::Registry::Global();
  for (const Tile& tile : tiles) {
    for (const bool weight_grad : {false, true}) {
      registry
          .GetGauge(util::StrFormat("kernels/bench/gemm_%s_%s_gflops",
                                    weight_grad ? "tn_wgrad" : "nn_fwd",
                                    tile.lanes))
          ->Set(GemmTileGflops(*tile.table, weight_grad));
    }
  }
  // Only the 16-chunk fork's CPU repeated within 10% back to back on a
  // 4-vCPU guest, so only it carries bench_diff's `_us` direction suffix;
  // the 2-chunk CPU moved 26% and the wall times more. `_gflops` above is
  // not a direction suffix either: those gauges are reported, not gated.
  const ForkCost two = MeasureFork(2);
  const ForkCost sixteen = MeasureFork(16);
  registry.GetGauge("kernels/bench/parallel_for_2_chunks_cpu_micros")
      ->Set(two.cpu_us);
  registry.GetGauge("kernels/bench/parallel_for_2_chunks_wall_micros")
      ->Set(two.wall_us);
  registry.GetGauge("kernels/bench/parallel_for_16_chunks_cpu_us")
      ->Set(sixteen.cpu_us);
  registry.GetGauge("kernels/bench/parallel_for_16_chunks_wall_micros")
      ->Set(sixteen.wall_us);
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
  PublishGemmAndForkGauges();
  benchmark::Shutdown();
  return 0;
}
