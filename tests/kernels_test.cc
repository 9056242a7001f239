// Tests for hosr::kernels: dispatch resolution, SIMD-vs-scalar numerical
// agreement across shapes that exercise every remainder lane, and
// end-to-end ranking agreement between dispatch modes (one training epoch +
// ScoreAllItems). The whole file also runs under HOSR_FORCE_SCALAR=1 via
// the kernels_test_forced_scalar ctest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/hosr.h"
#include "data/synthetic.h"
#include "eval/topk.h"
#include "kernels/kernels.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "util/logging.h"
#include "util/random.h"

namespace hosr::kernels {
namespace {

// Dimensions that hit: sub-lane (1, 3, 7), exact one lane (8), one lane +
// remainder (9), odd multi-lane (31), the d=64 serving sweet spot, and a
// 16-unrolled + 8-lane + scalar-tail mix (100).
const size_t kDims[] = {1, 3, 7, 8, 9, 31, 64, 100};

std::vector<float> RandomVec(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

void ExpectRelClose(float expected, float actual, const char* what, size_t d) {
  const double mag =
      std::max(std::fabs(static_cast<double>(expected)),
               std::fabs(static_cast<double>(actual)));
  EXPECT_NEAR(expected, actual, 1e-5 * std::max(1.0, mag))
      << what << " at d=" << d;
}

bool SimdAvailable() { return Best().level != kLevelScalar; }

TEST(KernelDispatchTest, TablesAreComplete) {
  for (const KernelTable* t : {&Scalar(), &Best(), &Active()}) {
    EXPECT_NE(t->name, nullptr);
    EXPECT_GT(t->gemm_tile_rows, 0u);
    EXPECT_GT(t->gemm_tile_cols, 0u);
    EXPECT_NE(t->axpy, nullptr);
    EXPECT_NE(t->axpy2, nullptr);
    EXPECT_NE(t->spmm_row, nullptr);
    EXPECT_NE(t->dot, nullptr);
    EXPECT_NE(t->scale, nullptr);
    EXPECT_NE(t->reduce_max, nullptr);
    EXPECT_NE(t->score_half, nullptr);
    EXPECT_NE(t->gemm_tile, nullptr);
    EXPECT_NE(t->tanh, nullptr);
    EXPECT_NE(t->rmsprop, nullptr);
  }
  EXPECT_EQ(Scalar().level, kLevelScalar);
  EXPECT_STREQ(Scalar().name, "scalar");
  // The 8-lane table differs from Best() in its GEMM tile alone.
  if (const KernelTable* narrow = EightLaneTable()) {
    EXPECT_EQ(narrow->level, Best().level);
    EXPECT_EQ(narrow->axpy, Best().axpy);
    EXPECT_EQ(narrow->rmsprop, Best().rmsprop);
    EXPECT_EQ(narrow->gemm_tile_rows, 6u);
    EXPECT_EQ(narrow->gemm_tile_cols, 16u);
  }
}

TEST(KernelDispatchTest, ActiveHonorsForceScalar) {
  if (ForcedScalar()) {
    EXPECT_EQ(Active().level, kLevelScalar)
        << "HOSR_FORCE_SCALAR set but Active() is " << Active().name;
  } else {
    EXPECT_EQ(Active().level, Best().level);
  }
}

TEST(KernelDispatchTest, DispatchLevelGaugeMatchesActive) {
  const KernelTable& active = Active();
  EXPECT_EQ(HOSR_GAUGE("kernels/dispatch_level").Get(),
            static_cast<double>(active.level));
}

TEST(KernelDispatchTest, SetActiveForTestingOverridesAndRestores) {
  const int normal_level = Active().level;
  SetActiveForTesting(&Scalar());
  EXPECT_EQ(Active().level, kLevelScalar);
  EXPECT_EQ(HOSR_GAUGE("kernels/dispatch_level").Get(), 0.0);
  SetActiveForTesting(nullptr);
  EXPECT_EQ(Active().level, normal_level);
}

// --- SIMD vs scalar agreement ------------------------------------------------

TEST(KernelEquivalenceTest, Axpy) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(101);
  for (const size_t d : kDims) {
    const auto x = RandomVec(d, &rng);
    const auto y0 = RandomVec(d, &rng);
    auto ys = y0, yb = y0;
    Scalar().axpy(d, 0.37f, x.data(), ys.data());
    Best().axpy(d, 0.37f, x.data(), yb.data());
    for (size_t i = 0; i < d; ++i) ExpectRelClose(ys[i], yb[i], "axpy", d);
  }
}

TEST(KernelEquivalenceTest, Axpy2) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(102);
  for (const size_t d : kDims) {
    const auto x0 = RandomVec(d, &rng);
    const auto x1 = RandomVec(d, &rng);
    const auto y0 = RandomVec(d, &rng);
    auto ys = y0, yb = y0;
    Scalar().axpy2(d, -1.1f, x0.data(), 0.63f, x1.data(), ys.data());
    Best().axpy2(d, -1.1f, x0.data(), 0.63f, x1.data(), yb.data());
    for (size_t i = 0; i < d; ++i) ExpectRelClose(ys[i], yb[i], "axpy2", d);
  }
}

TEST(KernelEquivalenceTest, Dot) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(103);
  for (const size_t d : kDims) {
    const auto a = RandomVec(d, &rng);
    const auto b = RandomVec(d, &rng);
    ExpectRelClose(Scalar().dot(d, a.data(), b.data()),
                   Best().dot(d, a.data(), b.data()), "dot", d);
  }
}

TEST(KernelEquivalenceTest, Scale) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(104);
  for (const size_t d : kDims) {
    const auto x0 = RandomVec(d, &rng);
    auto xs = x0, xb = x0;
    Scalar().scale(d, -2.5f, xs.data());
    Best().scale(d, -2.5f, xb.data());
    // Element-wise multiply has no reduction: exact equality.
    EXPECT_EQ(xs, xb) << "scale at d=" << d;
  }
}

TEST(KernelEquivalenceTest, ReduceMax) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(105);
  for (const size_t d : kDims) {
    const auto x = RandomVec(d, &rng);
    // Max selects an existing element: exact equality.
    EXPECT_EQ(Scalar().reduce_max(d, x.data()), Best().reduce_max(d, x.data()))
        << "reduce_max at d=" << d;
  }
}

// Every finite half narrows back to itself, ties round to the even
// neighbour, and values beyond the half range overflow or underflow.
TEST(KernelHalfTest, ConversionRoundsToNearestEven) {
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<uint16_t>(bits);
    const float f = HalfToFloat(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(f)))) << bits;
    } else {
      EXPECT_EQ(FloatToHalf(f), h) << bits;
    }
  }
  EXPECT_EQ(FloatToHalf(1.0f + 0x1p-11f), 0x3c00u);      // tie, even below
  EXPECT_EQ(FloatToHalf(1.0f + 3 * 0x1p-11f), 0x3c02u);  // tie, even above
  EXPECT_EQ(FloatToHalf(65504.0f), 0x7bffu);
  EXPECT_EQ(FloatToHalf(65519.0f), 0x7bffu);
  EXPECT_EQ(FloatToHalf(65520.0f), 0x7c00u);  // rounds past the largest
  EXPECT_EQ(FloatToHalf(-1e6f), 0xfc00u);
  EXPECT_EQ(FloatToHalf(0x1p-24f), 0x0001u);  // smallest subnormal
  EXPECT_EQ(FloatToHalf(0x1p-25f), 0x0000u);  // tie, even below
  EXPECT_EQ(FloatToHalf(0x1.8p-24f), 0x0002u);  // tie, even above
  EXPECT_EQ(FloatToHalf(-0x1p-30f), 0x8000u);  // underflow keeps the sign
  // Away from ties, the nearest half: no neighbour is closer.
  util::Rng rng(105);
  for (int n = 0; n < 20000; ++n) {
    const int exponent = static_cast<int>(rng.UniformInt(40)) - 25;
    const float x =
        static_cast<float>(rng.Gaussian() * std::pow(2.0, exponent));
    const uint16_t h = FloatToHalf(x);
    const double err = std::fabs(static_cast<double>(HalfToFloat(h)) - x);
    for (const int step : {-1, 1}) {
      const auto other = static_cast<uint16_t>(h + step);
      if ((other & 0x7fffu) >= 0x7c00u || ((other ^ h) & 0x8000u) != 0) {
        continue;
      }
      EXPECT_LE(err, std::fabs(static_cast<double>(HalfToFloat(other)) - x))
          << x;
    }
  }
}

// The serving engine's exact filter rests on this bound: in each table the
// half pass is within gamma_d |u| |h| of the exact sum against the widened
// half image h, so within twice that of the table's fp32 dot against h.
// With zero radii, lower and upper are that approximate score.
TEST(KernelHalfTest, ScoreHalfWithinDotBoundInEachTable) {
  constexpr size_t kRows = kHalfBlockRows;
  util::Rng rng(106);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    for (const size_t d : kDims) {
      const double gamma = d * 0x1p-24 / (1.0 - d * 0x1p-24);
      for (const size_t items : {1u, 3u, 9u, 21u}) {
        const size_t blocks = (items + kRows - 1) / kRows;
        const auto u = RandomVec(d, &rng);
        std::vector<float> widened(items * d);
        std::vector<uint16_t> half(blocks * kRows * d, 0);
        for (size_t j = 0; j < items; ++j) {
          // Row scales from 1e-3 to 1e3 keep every entry in half range.
          const float scale = std::pow(10.0f, static_cast<float>(j % 7) - 3);
          for (size_t i = 0; i < d; ++i) {
            const uint16_t h = FloatToHalf(
                static_cast<float>(rng.Gaussian()) * scale);
            half[((j / kRows) * d + i) * kRows + j % kRows] = h;
            widened[j * d + i] = HalfToFloat(h);
          }
        }
        const std::vector<float> zeros(blocks * kRows, 0.0f);
        std::vector<float> lower(blocks * kRows), upper(blocks * kRows);
        t->score_half(blocks, d, u.data(), half.data(), nullptr, zeros.data(),
                      0.0f, 0.0f, lower.data(), upper.data());
        for (size_t j = 0; j < items; ++j) {
          const float* h = widened.data() + j * d;
          double exact = 0.0, uu = 0.0, hh = 0.0;
          for (size_t i = 0; i < d; ++i) {
            exact += static_cast<double>(u[i]) * h[i];
            uu += static_cast<double>(u[i]) * u[i];
            hh += static_cast<double>(h[i]) * h[i];
          }
          const double bound = gamma * std::sqrt(uu) * std::sqrt(hh);
          ASSERT_EQ(lower[j], upper[j]) << t->name << " d=" << d;
          EXPECT_LE(std::fabs(lower[j] - exact), bound)
              << t->name << " d=" << d << " item " << j;
          EXPECT_LE(std::fabs(lower[j] - t->dot(d, u.data(), h)), 2 * bound)
              << t->name << " d=" << d << " item " << j;
        }
      }
    }
  }
}

// The bounds are s -+ (scale * radius + bias_radius) with the bias added to
// s, and a row whose bounds are not both finite gets (-inf, +inf).
TEST(KernelHalfTest, ScoreHalfBoundsAndUnboundedRows) {
  constexpr size_t kRows = kHalfBlockRows;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const size_t d = 3;
  const std::vector<float> u = {1.0f, 2.0f, -1.0f};
  std::vector<uint16_t> half(kRows * d, FloatToHalf(1.0f));  // s = 2 each
  half[(0 * d + 0) * kRows + 5] = FloatToHalf(kInf);       // row 5: s = inf
  std::vector<float> bias(kRows, 0.5f);
  std::vector<float> radius(kRows, 0.25f);
  radius[6] = kInf;  // row 6: unbounded radius
  radius[7] = std::numeric_limits<float>::quiet_NaN();
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    std::vector<float> lower(kRows), upper(kRows);
    t->score_half(1, d, u.data(), half.data(), bias.data(), radius.data(),
                  2.0f, 0.125f, lower.data(), upper.data());
    for (size_t r = 0; r < kRows; ++r) {
      if (r >= 5) {
        EXPECT_EQ(lower[r], -kInf) << t->name << " row " << r;
        EXPECT_EQ(upper[r], kInf) << t->name << " row " << r;
      } else {
        EXPECT_EQ(lower[r], 2.5f - 0.625f) << t->name << " row " << r;
        EXPECT_EQ(upper[r], 2.5f + 0.625f) << t->name << " row " << r;
      }
    }
  }
}

// rows x cols of C = alpha * A * B + beta * C through `t`'s own tiles, so
// a table can serve as the reference for a larger tile of another.
void TiledGemm(const KernelTable& t, size_t rows, size_t cols, size_t k,
               float alpha, const float* a, size_t a_row_stride,
               size_t a_k_stride, const float* b, size_t ldb, float beta,
               float* c, size_t ldc) {
  for (size_t i0 = 0; i0 < rows; i0 += t.gemm_tile_rows) {
    for (size_t j0 = 0; j0 < cols; j0 += t.gemm_tile_cols) {
      t.gemm_tile(std::min(t.gemm_tile_rows, rows - i0),
                  std::min(t.gemm_tile_cols, cols - j0), k, alpha,
                  a + i0 * a_row_stride, a_row_stride, a_k_stride, b + j0,
                  ldb, beta, c + i0 * ldc + j0, ldc);
    }
  }
}

// Every (rows, cols) shape of Best()'s tile, full and partial, through
// both A layouts gemm_tile serves: row-major (NN) and a transposed view
// (TN), against the scalar table's tiles.
TEST(KernelEquivalenceTest, GemmTile) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  const size_t max_rows = Best().gemm_tile_rows;
  const size_t max_cols = Best().gemm_tile_cols;
  util::Rng rng(108);
  const size_t ldb = max_cols + 3;
  const size_t ldc = max_cols + 5;
  for (const size_t k : {1u, 7u, 64u}) {
    const auto a = RandomVec(max_rows * k, &rng);
    const auto b = RandomVec(k * ldb, &rng);
    const auto c0 = RandomVec((max_rows + 1) * ldc, &rng);
    for (const bool transposed_a : {false, true}) {
      const size_t a_row_stride = transposed_a ? 1 : k;
      const size_t a_k_stride = transposed_a ? max_rows : 1;
      for (size_t rows = 1; rows <= max_rows; ++rows) {
        for (size_t cols = 1; cols <= max_cols; ++cols) {
          for (const float beta : {0.0f, 1.0f, 2.0f}) {
            auto cs = c0, cb = c0;
            TiledGemm(Scalar(), rows, cols, k, -0.5f, a.data(), a_row_stride,
                      a_k_stride, b.data(), ldb, beta, cs.data(), ldc);
            Best().gemm_tile(rows, cols, k, -0.5f, a.data(), a_row_stride,
                             a_k_stride, b.data(), ldb, beta, cb.data(), ldc);
            for (size_t i = 0; i <= max_rows; ++i) {
              for (size_t j = 0; j < ldc; ++j) {
                const size_t at = i * ldc + j;
                if (i < rows && j < cols) {
                  ExpectRelClose(cs[at], cb[at], "gemm_tile", k);
                } else {
                  // Outside the tile nothing is written.
                  EXPECT_EQ(cs[at], c0[at]) << "scalar wrote (" << i << ","
                                            << j << ") of a " << rows << "x"
                                            << cols << " tile";
                  EXPECT_EQ(cb[at], c0[at]) << "simd wrote (" << i << ","
                                            << j << ") of a " << rows << "x"
                                            << cols << " tile";
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemmTileBetaZeroIgnoresOldC) {
  // beta == 0 overwrites C without reading it, so NaN garbage in a fresh
  // buffer cannot leak into the product.
  util::Rng rng(109);
  const size_t k = 9;
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    const size_t rows = t->gemm_tile_rows;
    const size_t full = t->gemm_tile_cols;
    const auto a = RandomVec(rows * k, &rng);
    const auto b = RandomVec(k * full, &rng);
    for (const size_t cols : {full, size_t{5}}) {
      std::vector<float> c(rows * full,
                           std::numeric_limits<float>::quiet_NaN());
      t->gemm_tile(rows, cols, k, 1.0f, a.data(), k, 1, b.data(), full, 0.0f,
                   c.data(), full);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          EXPECT_TRUE(std::isfinite(c[i * full + j]))
              << t->name << " (" << i << "," << j << ") cols=" << cols;
        }
      }
    }
  }
}

// The 16-lane tile returns the 8-lane tile's bits: every shape up to its
// size, both A layouts, k from empty to the weight-gradient depth of
// paper-scale training, and beta 0, 1 and 2. alpha = -0.5 and those betas
// scale exactly, so alpha = 0.7 with beta = 1.3 also runs: it rounds
// alpha * acc and would tell fma(beta, c, alpha * acc) from any other
// order of the epilogue.
TEST(KernelWideTileTest, BitEqualToEightLaneTile) {
  const KernelTable* narrow = EightLaneTable();
  if (narrow == nullptr || narrow == &Best()) {
    GTEST_SKIP() << "no AVX-512F tile on this CPU";
  }
  const KernelTable& wide = Best();
  ASSERT_GT(wide.gemm_tile_cols, narrow->gemm_tile_cols);
  const size_t max_rows = wide.gemm_tile_rows;
  const size_t max_cols = wide.gemm_tile_cols;
  const size_t ldb = max_cols + 3;
  const size_t ldc = max_cols + 5;
  util::Rng rng(111);
  for (const size_t k : {0u, 1u, 7u, 64u, 455u, 2116u}) {
    const auto a = RandomVec(std::max<size_t>(1, max_rows * k), &rng);
    const auto b = RandomVec(std::max<size_t>(1, k * ldb), &rng);
    const auto c0 = RandomVec((max_rows + 1) * ldc, &rng);
    for (const bool transposed_a : {false, true}) {
      const size_t a_row_stride = transposed_a ? 1 : k;
      const size_t a_k_stride = transposed_a ? max_rows : 1;
      for (size_t rows = 1; rows <= max_rows; ++rows) {
        for (size_t cols = 1; cols <= max_cols; ++cols) {
          for (const auto& [alpha, beta] :
               {std::pair{-0.5f, 0.0f}, std::pair{-0.5f, 1.0f},
                std::pair{-0.5f, 2.0f}, std::pair{0.7f, 1.3f}}) {
            auto cn = c0, cw = c0;
            TiledGemm(*narrow, rows, cols, k, alpha, a.data(), a_row_stride,
                      a_k_stride, b.data(), ldb, beta, cn.data(), ldc);
            wide.gemm_tile(rows, cols, k, alpha, a.data(), a_row_stride,
                           a_k_stride, b.data(), ldb, beta, cw.data(), ldc);
            // Outside the tile both keep c0, so one memcmp covers it too.
            ASSERT_EQ(0, std::memcmp(cn.data(), cw.data(),
                                     cn.size() * sizeof(float)))
                << rows << "x" << cols << " tile, k=" << k
                << " transposed_a=" << transposed_a << " alpha=" << alpha
                << " beta=" << beta;
            for (size_t i = 0; i <= max_rows; ++i) {
              for (size_t j = 0; j < ldc; ++j) {
                if (i >= rows || j >= cols) {
                  ASSERT_EQ(cw[i * ldc + j], c0[i * ldc + j])
                      << "wrote (" << i << "," << j << ") of a " << rows
                      << "x" << cols << " tile";
                }
              }
            }
          }
        }
      }
    }
  }
}

// Applies a table's tanh to `x` with the values at every position of an
// 8-lane body and a remainder, so vector and tail code both see each value.
std::vector<float> TanhOf(const KernelTable& t, const std::vector<float>& x) {
  std::vector<float> y(x.size());
  t.tanh(x.size(), x.data(), y.data());
  return y;
}

TEST(KernelTanhTest, WithinBoundOfStdTanhOnDenseSweep) {
  std::vector<float> x;
  for (int i = -2000000; i <= 2000000; ++i) x.push_back(i * 1e-5f);
  x.push_back(1e-30f);
  x.push_back(-3e-39f);  // subnormal
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    const auto y = TanhOf(*t, x);
    double worst = 0.0;
    size_t worst_at = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double err = std::fabs(static_cast<double>(y[i]) - std::tanh(x[i]));
      if (err > worst) {
        worst = err;
        worst_at = i;
      }
    }
    EXPECT_LE(worst, 2e-7) << t->name << " worst at x=" << x[worst_at];
  }
}

TEST(KernelTanhTest, OddSignedZerosInfinitiesAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(110);
  std::vector<float> x = {0.0f, -0.0f, inf, -inf, nan, -nan, 1e-20f, 3.0f,
                          9.0f, 20.0f, 1e30f, 0.5f, 8.999f};
  for (int i = 0; i < 50; ++i) {
    x.push_back(static_cast<float>(rng.Gaussian()) * 4.0f);
  }
  std::vector<float> neg(x.size());
  for (size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    const auto y = TanhOf(*t, x);
    const auto y_neg = TanhOf(*t, neg);
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::isnan(x[i])) {
        EXPECT_TRUE(std::isnan(y[i])) << t->name << " NaN became " << y[i];
        continue;
      }
      EXPECT_EQ(y_neg[i], -y[i]) << t->name << " not odd at x=" << x[i];
    }
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_FALSE(std::signbit(y[0])) << t->name << " tanh(+0)";
    EXPECT_TRUE(std::signbit(y[1])) << t->name << " tanh(-0)";
    EXPECT_EQ(y[2], 1.0f) << t->name << " tanh(inf)";
    EXPECT_EQ(y[3], -1.0f) << t->name << " tanh(-inf)";
  }
}

TEST(KernelTanhTest, SimdSaturatesExactlyFromNine) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  std::vector<float> x;
  for (float v = 9.0f; v < 100.0f; v += 0.0137f) {
    x.push_back(v);
    x.push_back(-v);
  }
  x.push_back(std::numeric_limits<float>::max());
  const auto y = TanhOf(Best(), x);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i] > 0 ? 1.0f : -1.0f) << "x=" << x[i];
  }
}

TEST(KernelTanhTest, InPlaceAndTailMatchVectorBody) {
  // A value's tanh must not depend on its position: chunked callers put
  // different elements in the remainder lanes depending on the pool size.
  util::Rng rng(111);
  const auto x = RandomVec(37, &rng);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    const auto whole = TanhOf(*t, x);
    for (size_t offset = 0; offset < 9; ++offset) {
      std::vector<float> part(x.begin() + offset, x.end());
      t->tanh(part.size(), part.data(), part.data());
      for (size_t i = 0; i < part.size(); ++i) {
        EXPECT_EQ(part[i], whole[offset + i])
            << t->name << " offset " << offset << " i " << i;
      }
    }
  }
}

// --- spmm_row: bit-equal to its own table's axpy2/axpy pair chain -----------

// How an spmm_row case remaps its entries' dense rows.
enum class RemapMode { kNone, kAllKept, kOddSkipped, kEvenSkipped, kAllSkipped };

// A changed pair order, or a tail that the compiler contracts differently
// from axpy2's, fails this. Entries use distinct columns, so each entry's
// remap value decides whether it is skipped; a skipped entry reads a zero
// row in the reference chain.
TEST(KernelSpmmRowTest, BitEqualToPairChainOfSameTable) {
  constexpr size_t kDenseRows = 16;
  util::Rng rng(151);
  for (const KernelTable* table : {&Scalar(), &Best()}) {
    for (size_t d = 1; d <= 70; ++d) {
      const auto dense = RandomVec(kDenseRows * d, &rng);
      const std::vector<float> zeros(d, 0.0f);
      for (size_t nnz = 0; nnz <= 9; ++nnz) {
        std::vector<uint32_t> cols(nnz);
        for (size_t e = 0; e < nnz; ++e) cols[e] = (e * 7 + 3) % kDenseRows;
        const auto values = RandomVec(nnz, &rng);
        for (const RemapMode mode :
             {RemapMode::kNone, RemapMode::kAllKept, RemapMode::kOddSkipped,
              RemapMode::kEvenSkipped, RemapMode::kAllSkipped}) {
          std::vector<int32_t> remap(kDenseRows);
          for (size_t c = 0; c < kDenseRows; ++c) {
            remap[c] = static_cast<int32_t>((c * 5 + 1) % kDenseRows);
          }
          for (size_t e = 0; e < nnz; ++e) {
            const bool skip = mode == RemapMode::kAllSkipped ||
                              (mode == RemapMode::kOddSkipped && e % 2 == 1) ||
                              (mode == RemapMode::kEvenSkipped && e % 2 == 0);
            if (skip) remap[cols[e]] = -1;
          }
          const int32_t* remap_ptr =
              mode == RemapMode::kNone ? nullptr : remap.data();
          const auto row_of = [&](size_t e) {
            const int64_t row = remap_ptr == nullptr
                                    ? static_cast<int64_t>(cols[e])
                                    : remap[cols[e]];
            return row < 0 ? zeros.data()
                           : dense.data() + static_cast<size_t>(row) * d;
          };
          for (const bool accumulate : {false, true}) {
            const auto start = RandomVec(d, &rng);
            std::vector<float> expected =
                accumulate ? start : std::vector<float>(d, 0.0f);
            size_t e = 0;
            for (; e + 2 <= nnz; e += 2) {
              table->axpy2(d, values[e], row_of(e), values[e + 1],
                           row_of(e + 1), expected.data());
            }
            if (e < nnz) table->axpy(d, values[e], row_of(e), expected.data());
            std::vector<float> actual =
                accumulate ? start
                           : std::vector<float>(
                                 d, std::numeric_limits<float>::quiet_NaN());
            table->spmm_row(nnz, values.data(), cols.data(), remap_ptr,
                            dense.data(), d, accumulate, actual.data());
            for (size_t i = 0; i < d; ++i) {
              ASSERT_EQ(std::bit_cast<uint32_t>(expected[i]),
                        std::bit_cast<uint32_t>(actual[i]))
                  << table->name << " d=" << d << " nnz=" << nnz << " mode "
                  << static_cast<int>(mode) << " accumulate=" << accumulate
                  << " column " << i;
            }
          }
        }
      }
    }
  }
}

// --- rmsprop: every table returns the scalar bits -----------------------------

// A multiply and an add contracted into one FMA round once where the scalar
// loop rounds twice, so an rmsprop built with contraction on fails this.
TEST(KernelRmsPropTest, BitEqualToScalarAndClearsGradient) {
  util::Rng rng(131);
  for (const float grad_scale : {0.0f, 1e-30f, 1e-3f, 1.0f, 1e6f}) {
    for (size_t n = 0; n <= 67; ++n) {
      const auto value = RandomVec(n, &rng);
      auto grad = RandomVec(n, &rng);
      for (float& g : grad) g *= grad_scale;
      auto ms = RandomVec(n, &rng);
      for (float& m : ms) m = 0.01f * m * m;
      auto vs = value, gs = grad, ms_s = ms;
      auto vb = value, gb = grad, ms_b = ms;
      Scalar().rmsprop(n, 1e-3f, 1e-5f, 0.9f, 1e-8f, vs.data(), gs.data(),
                       ms_s.data());
      Best().rmsprop(n, 1e-3f, 1e-5f, 0.9f, 1e-8f, vb.data(), gb.data(),
                     ms_b.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(vs[i]), std::bit_cast<uint32_t>(vb[i]))
            << "value " << i << " of n=" << n << " grad scale " << grad_scale;
        ASSERT_EQ(std::bit_cast<uint32_t>(ms_s[i]),
                  std::bit_cast<uint32_t>(ms_b[i]))
            << "mean square " << i << " of n=" << n << " grad scale "
            << grad_scale;
        ASSERT_EQ(std::bit_cast<uint32_t>(gs[i]), 0u) << "scalar grad " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(gb[i]), 0u) << "simd grad " << i;
      }
    }
  }
}

// --- End-to-end: both dispatch modes rank identically ------------------------

class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelTable* table) {
    SetActiveForTesting(table);
  }
  ~ScopedKernelOverride() { SetActiveForTesting(nullptr); }
};

const data::Dataset& E2eDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "kernels-e2e";
    config.num_users = 80;
    config.num_items = 120;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 5;
    config.seed = 1234;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

tensor::Matrix TrainOneEpochAndScore(const KernelTable* table) {
  ScopedKernelOverride override_guard(table);
  const data::Dataset& dataset = E2eDataset();
  core::Hosr::Config config;
  config.embedding_dim = 16;
  config.num_layers = 2;
  config.graph_dropout = 0.0f;
  config.seed = 31;
  core::Hosr model(dataset, config);
  models::TrainConfig train_config;
  train_config.epochs = 1;
  train_config.batch_size = 64;
  train_config.learning_rate = 0.01f;
  train_config.seed = 7;
  models::BprTrainer trainer(&model, &dataset.interactions, train_config);
  trainer.Train();
  std::vector<uint32_t> users(dataset.num_users());
  std::iota(users.begin(), users.end(), 0);
  return model.ScoreAllItems(users);
}

TEST(KernelEndToEndTest, EpochAndScoreAllItemsRankIdenticallyBothModes) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  const tensor::Matrix scalar_scores = TrainOneEpochAndScore(&Scalar());
  const tensor::Matrix simd_scores = TrainOneEpochAndScore(&Best());
  ASSERT_TRUE(scalar_scores.SameShape(simd_scores));

  const data::Dataset& dataset = E2eDataset();
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    const auto& seen = dataset.interactions.ItemsOf(u);
    EXPECT_EQ(eval::TopK(scalar_scores.row(u), dataset.num_items(), 10, seen),
              eval::TopK(simd_scores.row(u), dataset.num_items(), 10, seen))
        << "user " << u;
    for (uint32_t j = 0; j < dataset.num_items(); ++j) {
      const float a = scalar_scores(u, j);
      const float b = simd_scores(u, j);
      const double mag = std::max(std::fabs(static_cast<double>(a)),
                                  std::fabs(static_cast<double>(b)));
      ASSERT_NEAR(a, b, 1e-3 * std::max(1.0, mag))
          << "user " << u << " item " << j;
    }
  }
}

}  // namespace
}  // namespace hosr::kernels
