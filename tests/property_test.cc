// Property-based tests: randomized inputs checked against independent
// reference implementations or algebraic invariants, swept over shapes via
// parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <utility>

#include "autograd/param.h"
#include "autograd/tape.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/topk.h"
#include "graph/csr.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hosr {
namespace {

using tensor::Matrix;

// --- GEMM vs naive reference over a shape sweep -------------------------------

// m crosses the 6-row tile edge, n the 16-column one; n = 1 and k = 1 are
// the attention-score shapes, and 64 / 2116 are the tape's d and a user
// count.
const size_t kGemmM[] = {1, 5, 6, 7, 13, 64};
const size_t kGemmN[] = {1, 15, 16, 17, 64};
const size_t kGemmK[] = {1, 64, 2116};

using GemmCase = std::tuple<size_t, size_t, size_t, bool, bool>;

class GemmPropertyTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmPropertyTest, MatchesNaiveReference) {
  const auto [m, n, k, transpose_a, transpose_b] = GetParam();
  util::Rng rng(m * 131 + k * 17 + n + (transpose_a ? 7 : 0) +
                (transpose_b ? 3 : 0));
  Matrix a(transpose_a ? k : m, transpose_a ? m : k);
  Matrix b(transpose_b ? n : k, transpose_b ? k : n);
  Matrix c0(m, n);
  tensor::GaussianInit(&a, 1.0f, &rng);
  tensor::GaussianInit(&b, 1.0f, &rng);
  tensor::GaussianInit(&c0, 1.0f, &rng);

  // (1, 0) overwrites; (1, 1) is every backward GEMM's accumulate; the
  // last pair scales both terms.
  const std::pair<float, float> kAlphaBeta[] = {
      {1.0f, 0.0f}, {1.0f, 1.0f}, {-0.5f, 2.0f}};
  for (const auto& [alpha, beta] : kAlphaBeta) {
    Matrix fast = c0;
    tensor::Gemm(a, transpose_a, b, transpose_b, alpha, beta, &fast);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        double magnitude = 0.0;
        for (size_t kk = 0; kk < k; ++kk) {
          const double av = transpose_a ? a(kk, i) : a(i, kk);
          const double bv = transpose_b ? b(j, kk) : b(kk, j);
          acc += av * bv;
          magnitude += std::fabs(av * bv);
        }
        const double want = alpha * acc + beta * c0(i, j);
        const double scale =
            std::fabs(alpha) * magnitude + std::fabs(beta * c0(i, j));
        ASSERT_NEAR(fast(i, j), want, 1e-5 * scale + 1e-30)
            << "(" << i << "," << j << ") alpha=" << alpha
            << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmPropertyTest,
    ::testing::Combine(::testing::ValuesIn(kGemmM), ::testing::ValuesIn(kGemmN),
                       ::testing::ValuesIn(kGemmK), ::testing::Bool(),
                       ::testing::Bool()));

// Tiles are owned by one thread and never split over k, so Gemm is
// bit-identical whether its ParallelFor fans out over the pool (main
// thread) or runs inline on one thread (nested in a ParallelFor body).
TEST(GemmDeterminismTest, BitIdenticalOnPoolAndInsidePoolTask) {
  struct Shape {
    size_t m, n, k;
  };
  const Shape kShapes[] = {{2116, 64, 64}, {64, 64, 2116}, {2116, 1, 64},
                           {64, 1, 2116}, {2116, 64, 1}};
  util::Rng rng(2024);
  for (const Shape& shape : kShapes) {
    for (const bool transpose_a : {false, true}) {
      for (const bool transpose_b : {false, true}) {
        Matrix a(transpose_a ? shape.k : shape.m,
                 transpose_a ? shape.m : shape.k);
        Matrix b(transpose_b ? shape.n : shape.k,
                 transpose_b ? shape.k : shape.n);
        Matrix c0(shape.m, shape.n);
        tensor::GaussianInit(&a, 1.0f, &rng);
        tensor::GaussianInit(&b, 1.0f, &rng);
        tensor::GaussianInit(&c0, 1.0f, &rng);
        Matrix pooled = c0;
        tensor::Gemm(a, transpose_a, b, transpose_b, 0.75f, 1.0f, &pooled);
        Matrix inline_run = c0;
        // Chunk 0 of two one-item chunks runs on this thread, where the
        // nested ParallelFor inside Gemm runs inline.
        util::ParallelFor(
            0, 2,
            [&](size_t begin, size_t) {
              if (begin != 0) return;
              tensor::Gemm(a, transpose_a, b, transpose_b, 0.75f, 1.0f,
                           &inline_run);
            },
            /*min_chunk=*/1);
        ASSERT_EQ(0, std::memcmp(pooled.data(), inline_run.data(),
                                 pooled.size() * sizeof(float)))
            << shape.m << "x" << shape.k << "x" << shape.n
            << " transpose_a=" << transpose_a
            << " transpose_b=" << transpose_b;
      }
    }
  }
}

// --- SpMM vs dense reference over random sparsity ------------------------------

class SpmmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmmPropertyTest, MatchesDensifiedMultiply) {
  util::Rng rng(GetParam());
  const uint32_t rows = 5 + static_cast<uint32_t>(rng.UniformInt(40));
  const uint32_t cols = 5 + static_cast<uint32_t>(rng.UniformInt(40));
  const size_t nnz = rng.UniformInt(rows * cols / 2 + 1);
  std::vector<graph::Triplet> triplets;
  for (size_t i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                        static_cast<uint32_t>(rng.UniformInt(cols)),
                        rng.Gaussian()});
  }
  const graph::CsrMatrix sparse =
      graph::CsrMatrix::FromTriplets(rows, cols, triplets);
  const size_t d = 1 + rng.UniformInt(16);
  Matrix dense(cols, d);
  tensor::GaussianInit(&dense, 1.0f, &rng);

  // Densify and multiply as reference.
  Matrix densified(rows, cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) densified(r, c) = sparse.At(r, c);
  }
  const Matrix expected = tensor::MatMul(densified, dense);
  EXPECT_TRUE(tensor::AllClose(graph::Spmm(sparse, dense), expected, 1e-3));
}

// The row-restricted product and the remapped product over the transpose
// (the two halves of Tape::SpMMRows) against the full product, bit for bit,
// from zero and accumulating. The forced-scalar rerun covers the scalar
// table.
TEST_P(SpmmPropertyTest, RowsAndRemapMatchFullProductBitForBit) {
  util::Rng rng(GetParam() + 100);
  const uint32_t rows = 5 + static_cast<uint32_t>(rng.UniformInt(60));
  const uint32_t cols = 5 + static_cast<uint32_t>(rng.UniformInt(60));
  const size_t nnz = rng.UniformInt(rows * cols / 2 + 1);
  std::vector<graph::Triplet> triplets;
  for (size_t i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                        static_cast<uint32_t>(rng.UniformInt(cols)),
                        rng.Gaussian()});
  }
  const graph::CsrMatrix sparse =
      graph::CsrMatrix::FromTriplets(rows, cols, triplets);
  const graph::CsrMatrix transposed = sparse.Transpose();
  const size_t d = 1 + rng.UniformInt(80);
  Matrix dense(cols, d);
  tensor::GaussianInit(&dense, 1.0f, &rng);
  std::vector<uint32_t> chosen;
  for (uint32_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.3)) chosen.push_back(r);
  }
  const size_t row_bytes = d * sizeof(float);

  for (const bool accumulate : {false, true}) {
    // Forward: rows `chosen` of sparse * dense.
    Matrix start(chosen.size(), d);
    tensor::GaussianInit(&start, 1.0f, &rng);
    Matrix full_start(rows, d);
    for (size_t i = 0; i < chosen.size(); ++i) {
      std::memcpy(full_start.row(chosen[i]), start.row(i), row_bytes);
    }
    Matrix restricted = start;
    graph::SpmmInto(sparse, dense, &restricted, accumulate, &chosen);
    Matrix full = full_start;
    graph::SpmmInto(sparse, dense, &full, accumulate);
    for (size_t i = 0; i < chosen.size(); ++i) {
      EXPECT_EQ(std::memcmp(restricted.row(i), full.row(chosen[i]), row_bytes),
                0)
          << "row " << chosen[i] << " d=" << d << " accumulate=" << accumulate;
    }

    // Backward: sparse[chosen, :]^T * dy through the remap, against the
    // transpose times dy scattered into zeroed rows.
    Matrix dy(chosen.size(), d);
    tensor::GaussianInit(&dy, 1.0f, &rng);
    std::vector<int32_t> remap(rows, -1);
    Matrix scattered(rows, d);
    for (size_t i = 0; i < chosen.size(); ++i) {
      remap[chosen[i]] = static_cast<int32_t>(i);
      std::memcpy(scattered.row(chosen[i]), dy.row(i), row_bytes);
    }
    Matrix grad_start(cols, d);
    tensor::GaussianInit(&grad_start, 1.0f, &rng);
    Matrix remapped = grad_start;
    graph::SpmmInto(transposed, dy, &remapped, accumulate, nullptr, &remap);
    Matrix reference = grad_start;
    graph::SpmmInto(transposed, scattered, &reference, accumulate);
    EXPECT_EQ(std::memcmp(remapped.data(), reference.data(),
                          remapped.size() * sizeof(float)),
              0)
        << "d=" << d << " accumulate=" << accumulate;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmmPropertyTest, ::testing::Range(1, 11));

// --- CSR invariants over random builds ------------------------------------------

class CsrPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrPropertyTest, SortedIndexedAndTransposeInvolutive) {
  util::Rng rng(100 + GetParam());
  const uint32_t rows = 1 + static_cast<uint32_t>(rng.UniformInt(30));
  const uint32_t cols = 1 + static_cast<uint32_t>(rng.UniformInt(30));
  std::vector<graph::Triplet> triplets;
  const size_t count = rng.UniformInt(200);
  for (size_t i = 0; i < count; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                        static_cast<uint32_t>(rng.UniformInt(cols)),
                        1.0f});
  }
  const graph::CsrMatrix m =
      graph::CsrMatrix::FromTriplets(rows, cols, triplets);
  // Row pointers are monotone and bounded.
  for (uint32_t r = 0; r < rows; ++r) {
    EXPECT_LE(m.row_begin(r), m.row_end(r));
    // Column indices strictly ascending within each row.
    for (size_t k = m.row_begin(r) + 1; k < m.row_end(r); ++k) {
      EXPECT_LT(m.col_idx()[k - 1], m.col_idx()[k]);
    }
  }
  EXPECT_EQ(m.row_ptr().back(), m.nnz());
  EXPECT_TRUE(m.Transpose().Transpose() == m);
  // nnz never exceeds the input triplet count.
  EXPECT_LE(m.nnz(), count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrPropertyTest, ::testing::Range(1, 11));

// --- Laplacian spectra-free invariants ------------------------------------------

class LaplacianPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LaplacianPropertyTest, SymmetricBoundedAndSelfLoops) {
  util::Rng rng(200 + GetParam());
  const uint32_t n = 10 + static_cast<uint32_t>(rng.UniformInt(50));
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < n; ++i) {
    edges.emplace_back(i, static_cast<uint32_t>(rng.UniformInt(i)));
  }
  const auto graph = graph::SocialGraph::FromEdges(n, edges);
  ASSERT_TRUE(graph.ok());
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(graph->adjacency());
  EXPECT_TRUE(laplacian.Transpose() == laplacian);
  for (uint32_t i = 0; i < n; ++i) {
    // Self-loop present and equal to 1/deg.
    const float self = laplacian.At(i, i);
    const float deg = std::max(1.0f, static_cast<float>(graph->Degree(i)));
    EXPECT_NEAR(self, 1.0f / deg, 1e-5);
    // All entries in (0, 1].
    for (size_t k = laplacian.row_begin(i); k < laplacian.row_end(i); ++k) {
      EXPECT_GT(laplacian.values()[k], 0.0f);
      EXPECT_LE(laplacian.values()[k], 1.0f + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaplacianPropertyTest,
                         ::testing::Range(1, 8));

// --- TopK vs full sort reference -------------------------------------------------

class TopKPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKPropertyTest, AgreesWithStableSortReference) {
  util::Rng rng(300 + GetParam());
  const uint32_t n = 20 + static_cast<uint32_t>(rng.UniformInt(300));
  std::vector<float> scores(n);
  for (auto& s : scores) s = rng.Gaussian();
  // Random exclusion set.
  std::vector<uint32_t> excluded;
  for (uint32_t j = 0; j < n; ++j) {
    if (rng.Bernoulli(0.2)) excluded.push_back(j);
  }
  const uint32_t k = 1 + static_cast<uint32_t>(rng.UniformInt(25));

  const auto fast = eval::TopK(scores.data(), n, k, excluded);

  std::vector<uint32_t> candidates;
  for (uint32_t j = 0; j < n; ++j) {
    if (!std::binary_search(excluded.begin(), excluded.end(), j)) {
      candidates.push_back(j);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](uint32_t a, uint32_t b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  candidates.resize(std::min<size_t>(candidates.size(), k));
  EXPECT_EQ(fast, candidates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest, ::testing::Range(1, 13));

// --- Metric invariants -------------------------------------------------------

class MetricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricPropertyTest, BoundsAndOrderings) {
  util::Rng rng(400 + GetParam());
  const uint32_t n_items = 50;
  std::vector<uint32_t> ranked;
  for (uint32_t j = 0; j < 20; ++j) {
    const auto item = static_cast<uint32_t>(rng.UniformInt(n_items));
    if (std::find(ranked.begin(), ranked.end(), item) == ranked.end()) {
      ranked.push_back(item);
    }
  }
  std::vector<uint32_t> relevant;
  for (uint32_t j = 0; j < n_items; ++j) {
    if (rng.Bernoulli(0.15)) relevant.push_back(j);
  }
  const double recall = eval::RecallAtK(ranked, relevant);
  const double ap = eval::AveragePrecisionAtK(ranked, relevant, 20);
  const double ndcg = eval::NdcgAtK(ranked, relevant, 20);
  const double precision = eval::PrecisionAtK(ranked, relevant, 20);
  for (const double metric : {recall, ap, ndcg, precision}) {
    EXPECT_GE(metric, 0.0);
    EXPECT_LE(metric, 1.0 + 1e-12);
  }
  // AP is upper-bounded by a function of the hit count just like recall:
  // if nothing was hit, everything is 0.
  if (recall == 0.0) {
    EXPECT_EQ(ap, 0.0);
    EXPECT_EQ(ndcg, 0.0);
    EXPECT_EQ(precision, 0.0);
  }
  // Moving a relevant item to rank 1 never decreases AP or NDCG.
  if (!relevant.empty()) {
    std::vector<uint32_t> promoted = ranked;
    promoted.insert(promoted.begin(), relevant.front());
    promoted.resize(std::min<size_t>(promoted.size(), 20));
    EXPECT_GE(eval::AveragePrecisionAtK(promoted, relevant, 20) + 1e-9, ap);
    EXPECT_GE(eval::NdcgAtK(promoted, relevant, 20) + 1e-9, ndcg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest, ::testing::Range(1, 13));

// --- Autograd linearity property ------------------------------------------------

class AutogradLinearityTest : public ::testing::TestWithParam<int> {};

TEST_P(AutogradLinearityTest, GradientOfLinearFunctionIsExact) {
  // For f(x) = sum(c ⊙ x), the gradient must be exactly c regardless of
  // the graph shape used to compute it.
  util::Rng rng(500 + GetParam());
  autograd::ParamStore store;
  const size_t rows = 1 + rng.UniformInt(6);
  const size_t cols = 1 + rng.UniformInt(6);
  autograd::Param* x = store.CreateGaussian("x", rows, cols, 1.0f, &rng);
  Matrix c(rows, cols);
  tensor::GaussianInit(&c, 1.0f, &rng);

  autograd::Tape tape;
  autograd::Value loss =
      tape.Sum(tape.Hadamard(tape.Param(x), tape.Constant(c)));
  store.ZeroGrad();
  tape.Backward(loss);
  EXPECT_TRUE(tensor::AllClose(x->grad, c, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradLinearityTest,
                         ::testing::Range(1, 9));

// --- Dataset split properties over random datasets ------------------------------

class SplitPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitPropertyTest, PartitionInvariantsHold) {
  data::SyntheticConfig config;
  config.num_users = 150;
  config.num_items = 200;
  config.avg_interactions_per_user = 8;
  config.avg_relations_per_user = 5;
  config.seed = 600 + static_cast<uint64_t>(GetParam());
  const auto dataset = data::GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  util::Rng rng(GetParam());
  const auto split = data::SplitDataset(*dataset, 0.25, &rng);
  ASSERT_TRUE(split.ok());

  EXPECT_EQ(split->train.interactions.nnz() + split->test.nnz(),
            dataset->interactions.nnz());
  for (uint32_t u = 0; u < dataset->num_users(); ++u) {
    // Disjoint per user, union equals original.
    const auto& train_items = split->train.interactions.ItemsOf(u);
    const auto& test_items = split->test.ItemsOf(u);
    std::vector<uint32_t> merged = train_items;
    merged.insert(merged.end(), test_items.begin(), test_items.end());
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, dataset->interactions.ItemsOf(u));
    EXPECT_FALSE(train_items.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitPropertyTest, ::testing::Range(1, 7));

// --- Segment ops consistency with matrix ops over random segmentations ----------

class SegmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SegmentPropertyTest, WeightedSumMatchesManualAccumulation) {
  util::Rng rng(700 + GetParam());
  const size_t num_segments = 1 + rng.UniformInt(8);
  std::vector<size_t> offsets{0};
  for (size_t s = 0; s < num_segments; ++s) {
    offsets.push_back(offsets.back() + rng.UniformInt(6));
  }
  const size_t total = offsets.back();
  if (total == 0) return;
  const size_t d = 1 + rng.UniformInt(5);

  autograd::ParamStore store;
  autograd::Param* alpha = store.CreateGaussian("alpha", total, 1, 1.0f, &rng);
  autograd::Param* feats = store.CreateGaussian("feats", total, d, 1.0f, &rng);

  autograd::Tape tape;
  autograd::Value out = tape.SegmentWeightedSum(
      tape.Param(alpha), tape.Param(feats), offsets);

  Matrix expected(num_segments, d);
  for (size_t s = 0; s < num_segments; ++s) {
    for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      for (size_t c = 0; c < d; ++c) {
        expected(s, c) += alpha->value(e, 0) * feats->value(e, c);
      }
    }
  }
  EXPECT_TRUE(tensor::AllClose(out.value(), expected, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace hosr
