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
#include <limits>
#include <numeric>
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
    EXPECT_NE(t->axpy, nullptr);
    EXPECT_NE(t->axpy2, nullptr);
    EXPECT_NE(t->spmm_row, nullptr);
    EXPECT_NE(t->dot, nullptr);
    EXPECT_NE(t->scale, nullptr);
    EXPECT_NE(t->reduce_max, nullptr);
    EXPECT_NE(t->score_block, nullptr);
    EXPECT_NE(t->gemm_tile, nullptr);
    EXPECT_NE(t->tanh, nullptr);
    EXPECT_NE(t->rmsprop, nullptr);
  }
  EXPECT_EQ(Scalar().level, kLevelScalar);
  EXPECT_STREQ(Scalar().name, "scalar");
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

TEST(KernelEquivalenceTest, ScoreBlock) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(106);
  for (const size_t d : kDims) {
    // Odd and even item counts exercise the paired loop and its remainder.
    for (const size_t items : {1u, 2u, 3u, 8u}) {
      const auto u = RandomVec(d, &rng);
      const auto rows = RandomVec(items * d, &rng);
      const auto bias = RandomVec(items, &rng);
      for (const bool with_bias : {false, true}) {
        std::vector<float> out_s(items), out_b(items);
        const float* bias_ptr = with_bias ? bias.data() : nullptr;
        const float max_s = Scalar().score_block(items, d, u.data(),
                                                 rows.data(), bias_ptr,
                                                 out_s.data());
        const float max_b = Best().score_block(items, d, u.data(), rows.data(),
                                               bias_ptr, out_b.data());
        for (size_t j = 0; j < items; ++j) {
          ExpectRelClose(out_s[j], out_b[j], "score_block", d);
        }
        ExpectRelClose(max_s, max_b, "score_block max", d);
        EXPECT_EQ(max_s, *std::max_element(out_s.begin(), out_s.end()));
        EXPECT_EQ(max_b, *std::max_element(out_b.begin(), out_b.end()));
      }
    }
  }
}

TEST(KernelEquivalenceTest, ScoreBlockMatchesDotExactly) {
  // Within one table, the blocked scoring path must replay the dot
  // kernel's reduction order bit-for-bit — the serving bit-identity
  // contract (ModelSnapshot::Score and tensor::Gemm use dot; the engine
  // scan uses score_block).
  util::Rng rng(107);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    for (const size_t d : kDims) {
      const size_t items = 5;
      const auto u = RandomVec(d, &rng);
      const auto rows = RandomVec(items * d, &rng);
      std::vector<float> out(items);
      t->score_block(items, d, u.data(), rows.data(), nullptr, out.data());
      for (size_t j = 0; j < items; ++j) {
        EXPECT_EQ(out[j], t->dot(d, u.data(), rows.data() + j * d))
            << t->name << " d=" << d << " item " << j;
      }
    }
  }
}

// Every (rows, cols) tile shape, full and partial, through both A layouts
// gemm_tile serves: row-major (NN) and a transposed view (TN).
TEST(KernelEquivalenceTest, GemmTile) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD table on this CPU";
  util::Rng rng(108);
  const size_t ldb = kGemmTileCols + 3;
  const size_t ldc = kGemmTileCols + 5;
  for (const size_t k : {1u, 7u, 64u}) {
    const auto a = RandomVec(kGemmTileRows * k, &rng);
    const auto b = RandomVec(k * ldb, &rng);
    const auto c0 = RandomVec(kGemmTileRows * ldc, &rng);
    for (const bool transposed_a : {false, true}) {
      const size_t a_row_stride = transposed_a ? 1 : k;
      const size_t a_k_stride = transposed_a ? kGemmTileRows : 1;
      for (size_t rows = 1; rows <= kGemmTileRows; ++rows) {
        for (size_t cols = 1; cols <= kGemmTileCols; ++cols) {
          for (const float beta : {0.0f, 1.0f, 2.0f}) {
            auto cs = c0, cb = c0;
            Scalar().gemm_tile(rows, cols, k, -0.5f, a.data(), a_row_stride,
                               a_k_stride, b.data(), ldb, beta, cs.data(),
                               ldc);
            Best().gemm_tile(rows, cols, k, -0.5f, a.data(), a_row_stride,
                             a_k_stride, b.data(), ldb, beta, cb.data(), ldc);
            for (size_t i = 0; i < kGemmTileRows; ++i) {
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
  const auto a = RandomVec(kGemmTileRows * k, &rng);
  const auto b = RandomVec(k * kGemmTileCols, &rng);
  for (const KernelTable* t : {&Scalar(), &Best()}) {
    for (const size_t cols : {kGemmTileCols, size_t{5}}) {
      std::vector<float> c(kGemmTileRows * kGemmTileCols,
                           std::numeric_limits<float>::quiet_NaN());
      t->gemm_tile(kGemmTileRows, cols, k, 1.0f, a.data(), k, 1, b.data(),
                   kGemmTileCols, 0.0f, c.data(), kGemmTileCols);
      for (size_t i = 0; i < kGemmTileRows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          EXPECT_TRUE(std::isfinite(c[i * kGemmTileCols + j]))
              << t->name << " (" << i << "," << j << ") cols=" << cols;
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
