#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/csr.h"
#include "graph/laplacian.h"
#include "graph/sampling.h"
#include "graph/social_graph.h"
#include "graph/spmm.h"
#include "graph/stats.h"
#include "obs/metrics.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hosr::graph {
namespace {

using tensor::Matrix;

// --- CsrMatrix ----------------------------------------------------------------

TEST(CsrTest, FromTripletsSortsAndIndexes) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      3, 4, {{2, 1, 5.0f}, {0, 3, 1.0f}, {0, 0, 2.0f}});
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 4u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.At(0, 3), 1.0f);
  EXPECT_FLOAT_EQ(m.At(2, 1), 5.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
}

TEST(CsrTest, DuplicatesSum) {
  const CsrMatrix m =
      CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.At(0, 0), 3.5f);
}

TEST(CsrTest, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
  for (uint32_t r = 0; r < 3; ++r) EXPECT_EQ(m.row_nnz(r), 0u);
}

TEST(CsrTest, TransposeCorrectAndInvolutive) {
  const CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{0, 2, 7.0f}, {1, 0, 3.0f}, {1, 2, 4.0f}});
  const CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_FLOAT_EQ(t.At(2, 0), 7.0f);
  EXPECT_FLOAT_EQ(t.At(0, 1), 3.0f);
  EXPECT_TRUE(t.Transpose() == m);
}

// --- SocialGraph ----------------------------------------------------------------

TEST(SocialGraphTest, SymmetricAdjacency) {
  const auto g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {0, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_users(), 4u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_TRUE(g->HasEdge(1, 0));
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(2, 3));
  EXPECT_EQ(g->Degree(0), 2u);
  EXPECT_EQ(g->Degree(2), 1u);
}

TEST(SocialGraphTest, RejectsSelfLoop) {
  EXPECT_FALSE(SocialGraph::FromEdges(3, {{1, 1}}).ok());
}

TEST(SocialGraphTest, RejectsOutOfRange) {
  EXPECT_FALSE(SocialGraph::FromEdges(3, {{0, 5}}).ok());
}

TEST(SocialGraphTest, DuplicateEdgesCollapse) {
  const auto g = SocialGraph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_FLOAT_EQ(g->adjacency().At(0, 1), 1.0f);
}

TEST(SocialGraphTest, EdgeListRoundTrip) {
  const std::vector<std::pair<uint32_t, uint32_t>> edges{{0, 2}, {1, 3}, {2, 3}};
  const auto g = SocialGraph::FromEdges(4, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->EdgeList(), edges);
}

TEST(SocialGraphTest, NeighborsSorted) {
  const auto g = SocialGraph::FromEdges(5, {{2, 4}, {2, 0}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Neighbors(2), (std::vector<uint32_t>{0, 3, 4}));
}

TEST(SocialGraphTest, Density) {
  // 3 edges of C(4,2)=6 possible.
  const auto g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->Density(), 0.5);
}

// --- Laplacian ---------------------------------------------------------------

TEST(LaplacianTest, MatchesEquationSix) {
  // Path graph 0-1-2: degrees 1, 2, 1.
  const auto g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  const CsrMatrix laplacian = NormalizedLaplacian(g->adjacency());
  // Off-diagonal: 1/sqrt(d_i d_j); diagonal self-loop: 1/d_i.
  EXPECT_NEAR(laplacian.At(0, 1), 1.0 / std::sqrt(1.0 * 2.0), 1e-6);
  EXPECT_NEAR(laplacian.At(1, 0), 1.0 / std::sqrt(2.0 * 1.0), 1e-6);
  EXPECT_NEAR(laplacian.At(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(laplacian.At(1, 1), 0.5, 1e-6);
  EXPECT_FLOAT_EQ(laplacian.At(0, 2), 0.0f);
}

TEST(LaplacianTest, SymmetricOperator) {
  util::Rng rng(1);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 30; ++i) {
    edges.emplace_back(i, static_cast<uint32_t>(rng.UniformInt(i)));
  }
  const auto g = SocialGraph::FromEdges(30, edges);
  ASSERT_TRUE(g.ok());
  const CsrMatrix laplacian = NormalizedLaplacian(g->adjacency());
  EXPECT_TRUE(laplacian.Transpose() == laplacian);
}

TEST(LaplacianTest, NoSelfLoopVariant) {
  const auto g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  const CsrMatrix na = NormalizedAdjacency(g->adjacency());
  EXPECT_FLOAT_EQ(na.At(0, 0), 0.0f);
  EXPECT_EQ(na.nnz(), 4u);
}

TEST(LaplacianTest, IsolatedNodeClampedDegree) {
  // Node 2 is isolated (possible after graph dropout).
  const auto g = SocialGraph::FromEdges(3, {{0, 1}});
  ASSERT_TRUE(g.ok());
  const CsrMatrix laplacian = NormalizedLaplacian(g->adjacency());
  EXPECT_NEAR(laplacian.At(2, 2), 1.0, 1e-6);  // 1/max(0,1)
}

// --- SpMM ---------------------------------------------------------------------

TEST(SpmmTest, MatchesDenseMultiply) {
  util::Rng rng(2);
  const CsrMatrix sparse = CsrMatrix::FromTriplets(
      4, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, -1.0f}, {3, 0, 0.5f}});
  Matrix dense(3, 5);
  tensor::GaussianInit(&dense, 1.0f, &rng);

  const Matrix fast = Spmm(sparse, dense);

  // Dense reference.
  Matrix sparse_dense(4, 3);
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 3; ++c) sparse_dense(r, c) = sparse.At(r, c);
  }
  EXPECT_TRUE(tensor::AllClose(fast, tensor::MatMul(sparse_dense, dense), 1e-5));
}

TEST(SpmmTest, TransposeBuildCounterIncrements) {
  auto& builds = HOSR_COUNTER("spmm/transpose_builds");
  const uint64_t before = builds.Get();
  const CsrMatrix sparse =
      CsrMatrix::FromTriplets(3, 4, {{0, 1, 1.0f}, {2, 3, 2.0f}});
  const CsrMatrix transposed = sparse.Transpose();
  EXPECT_EQ(builds.Get(), before + 1);
  // The forward Spmm never builds a transpose.
  Matrix dense(3, 2, 1.0f);
  const Matrix fwd = Spmm(transposed, dense);
  EXPECT_EQ(fwd.rows(), 4u);
  EXPECT_EQ(builds.Get(), before + 1);
}

TEST(SpmmTest, CountersCountRowsAndEntriesMultiplied) {
  // Row nnz: 2, 0, 3, 1 over 5 columns.
  const CsrMatrix sparse = CsrMatrix::FromTriplets(
      4, 5,
      {{0, 0, 1.0f}, {0, 3, 2.0f}, {2, 1, 1.0f}, {2, 2, -1.0f},
       {2, 4, 0.5f}, {3, 3, 3.0f}});
  auto& rows_processed = HOSR_COUNTER("spmm/rows_processed");
  auto& flops = HOSR_COUNTER("spmm/flops");
  constexpr size_t d = 3;
  const Matrix dense(5, d, 1.0f);

  // The forward over rows {0, 3}: two rows, 2 + 1 entries.
  const std::vector<uint32_t> rows = {0, 3};
  Matrix out(2, d);
  uint64_t rows_before = rows_processed.Get();
  uint64_t flops_before = flops.Get();
  SpmmInto(sparse, dense, &out, /*accumulate=*/false, &rows);
  EXPECT_EQ(rows_processed.Get() - rows_before, 2u);
  EXPECT_EQ(flops.Get() - flops_before, 2u * 3 * d);

  // Its backward over the transpose (5 rows) keeps only the entries in
  // the transpose's columns 0 and 3: 2 + 1 of its 6.
  const CsrMatrix transposed = sparse.Transpose();
  const std::vector<int32_t> remap = {0, -1, -1, 1};
  Matrix grad(5, d);
  rows_before = rows_processed.Get();
  flops_before = flops.Get();
  SpmmInto(transposed, out, &grad, /*accumulate=*/false, nullptr, &remap);
  EXPECT_EQ(rows_processed.Get() - rows_before, 5u);
  EXPECT_EQ(flops.Get() - flops_before, 2u * 3 * d);

  // The full product counts every row and entry.
  rows_before = rows_processed.Get();
  flops_before = flops.Get();
  const Matrix full = Spmm(sparse, dense);
  EXPECT_EQ(rows_processed.Get() - rows_before, 4u);
  EXPECT_EQ(flops.Get() - flops_before, 2u * 6 * d);
}

TEST(SpmmTest, EmptyRowsYieldZero) {
  const CsrMatrix sparse = CsrMatrix::FromTriplets(3, 2, {{0, 1, 1.0f}});
  Matrix dense(2, 2, 1.0f);
  const Matrix out = Spmm(sparse, dense);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out(2, 1), 0.0f);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);
}

// --- Sampling ---------------------------------------------------------------

TEST(GraphDropoutTest, ZeroKeepsEverything) {
  const auto g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  util::Rng rng(4);
  const SocialGraph thinned = GraphDropout(*g, 0.0, &rng);
  EXPECT_EQ(thinned.num_edges(), 3u);
}

TEST(GraphDropoutTest, DropsApproximatelyPFraction) {
  util::Rng build_rng(5);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 2000; ++i) {
    edges.emplace_back(i, static_cast<uint32_t>(build_rng.UniformInt(i)));
  }
  const auto g = SocialGraph::FromEdges(2000, edges);
  ASSERT_TRUE(g.ok());
  util::Rng rng(6);
  const SocialGraph thinned = GraphDropout(*g, 0.4, &rng);
  const double kept =
      static_cast<double>(thinned.num_edges()) / g->num_edges();
  EXPECT_NEAR(kept, 0.6, 0.05);
  EXPECT_EQ(thinned.num_users(), g->num_users());
}

TEST(GraphDropoutTest, DropsUndirectedEdgesConsistently) {
  const auto g = SocialGraph::FromEdges(10, {{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(g.ok());
  util::Rng rng(7);
  const SocialGraph thinned = GraphDropout(*g, 0.5, &rng);
  // Whatever survives must still be symmetric.
  for (const auto& [a, b] : thinned.EdgeList()) {
    EXPECT_TRUE(thinned.HasEdge(a, b));
    EXPECT_TRUE(thinned.HasEdge(b, a));
  }
}

TEST(RandomWalkTest, SamplesOnlyReachableNodes) {
  // Two components: {0,1,2} and {3,4}.
  const auto g = SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}});
  ASSERT_TRUE(g.ok());
  util::Rng rng(8);
  const auto sample = RandomWalkWithRestart(*g, 0, 0.3, 10, &rng);
  for (const uint32_t v : sample) EXPECT_LT(v, 3u);
  EXPECT_LE(sample.size(), 2u);  // only 1 and 2 reachable besides start
}

TEST(RandomWalkTest, ExcludesStartAndRespectsSize) {
  util::Rng build_rng(9);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 200; ++i) {
    edges.emplace_back(i, static_cast<uint32_t>(build_rng.UniformInt(i)));
    edges.emplace_back(i, static_cast<uint32_t>(build_rng.UniformInt(i)));
  }
  const auto g = SocialGraph::FromEdges(200, edges);
  ASSERT_TRUE(g.ok());
  util::Rng rng(10);
  const auto sample = RandomWalkWithRestart(*g, 7, 0.5, 25, &rng);
  EXPECT_EQ(sample.size(), 25u);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 25u);
  EXPECT_EQ(unique.count(7), 0u);
}

TEST(RandomWalkTest, IsolatedStartReturnsEmpty) {
  const auto g = SocialGraph::FromEdges(3, {{1, 2}});
  ASSERT_TRUE(g.ok());
  util::Rng rng(11);
  EXPECT_TRUE(RandomWalkWithRestart(*g, 0, 0.5, 5, &rng, 100).empty());
}

// --- Stats -------------------------------------------------------------------

TEST(KOrderStatsTest, PathGraphClosureCounts) {
  // Path 0-1-2-3: order-1 neighbor counts 1,2,2,1 (avg 1.5);
  // order-2: 2,3,3,2 (avg 2.5); order-3: 3,3,3,3 (avg 3).
  const auto g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  const auto stats = KOrderStats(*g, 3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_DOUBLE_EQ(stats[0].avg_neighbors_per_user, 1.5);
  EXPECT_DOUBLE_EQ(stats[1].avg_neighbors_per_user, 2.5);
  EXPECT_DOUBLE_EQ(stats[2].avg_neighbors_per_user, 3.0);
  // Density = avg / (n-1).
  EXPECT_DOUBLE_EQ(stats[0].density, 1.5 / 3.0);
  EXPECT_DOUBLE_EQ(stats[2].density, 1.0);
}

TEST(KOrderStatsTest, MonotoneInOrder) {
  util::Rng build_rng(12);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 500; ++i) {
    edges.emplace_back(i, static_cast<uint32_t>(build_rng.UniformInt(i)));
  }
  const auto g = SocialGraph::FromEdges(500, edges);
  ASSERT_TRUE(g.ok());
  const auto stats = KOrderStats(*g, 4);
  for (size_t k = 1; k < stats.size(); ++k) {
    EXPECT_GE(stats[k].avg_neighbors_per_user,
              stats[k - 1].avg_neighbors_per_user);
    EXPECT_GE(stats[k].density, stats[k - 1].density);
  }
}

TEST(KOrderStatsTest, FirstOrderMatchesDegreeAverage) {
  const auto g = SocialGraph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  const auto stats = KOrderStats(*g, 1);
  double avg_degree = 0;
  for (uint32_t u = 0; u < 5; ++u) avg_degree += g->Degree(u);
  EXPECT_DOUBLE_EQ(stats[0].avg_neighbors_per_user, avg_degree / 5);
}

TEST(KOrderStatsTest, PathGraphCountsEachOrder) {
  // Path 0-1-2-3-4: within k hops the users reach 8, 14, 18 and 20
  // others in total for k = 1..4; a fifth hop reaches nobody new.
  const auto g = SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  const auto stats = KOrderStats(*g, 5);
  const double totals[] = {8, 14, 18, 20, 20};
  for (uint32_t k = 0; k < 5; ++k) {
    EXPECT_EQ(stats[k].order, k + 1);
    EXPECT_DOUBLE_EQ(stats[k].avg_neighbors_per_user, totals[k] / 5);
    EXPECT_DOUBLE_EQ(stats[k].density, totals[k] / 20);
  }
}

// 3000 users fork into many ParallelFor chunks, several per pool thread;
// the counts must equal those of one thread running every source.
TEST(KOrderStatsTest, ForkedCountsEqualOneThreadRun) {
  util::Rng build_rng(13);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  const uint32_t n = 3000;
  for (uint32_t i = 1; i < n; ++i) {
    for (int e = 0; e < 3; ++e) {
      edges.emplace_back(i, static_cast<uint32_t>(build_rng.UniformInt(i)));
    }
  }
  const auto g = SocialGraph::FromEdges(n, edges);
  ASSERT_TRUE(g.ok());
  const auto forked = KOrderStats(*g, 3);
  std::vector<OrderStats> one_thread;
  // The chunks of a forked ParallelFor run nested calls inline on their
  // thread.
  util::ParallelFor(
      0, util::kForkChunks,
      [&](size_t begin, size_t) {
        if (begin == 0) one_thread = KOrderStats(*g, 3);
      },
      /*min_chunk=*/1);
  ASSERT_EQ(forked.size(), one_thread.size());
  for (size_t k = 0; k < forked.size(); ++k) {
    EXPECT_EQ(forked[k].avg_neighbors_per_user,
              one_thread[k].avg_neighbors_per_user)
        << "order " << k + 1;
    EXPECT_EQ(forked[k].density, one_thread[k].density) << "order " << k + 1;
  }
}

TEST(DegreeHistogramTest, BucketsCounts) {
  // Degrees: 0:3, 1:1, 2:1, 3:2, 4:1.
  const auto g = SocialGraph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  const auto hist = ComputeDegreeHistogram(*g, {1, 2, 3});
  // Bucket [1,2): degrees 1 -> users 1,2,4 = 3; [2,3): user 3 -> 1;
  // [3,inf): user 0 -> 1.
  EXPECT_EQ(hist.counts, (std::vector<uint64_t>{3, 1, 1}));
}

TEST(DegreeGiniTest, RegularGraphNearZero) {
  // Cycle: every degree is 2.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  const uint32_t n = 100;
  for (uint32_t i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  const auto g = SocialGraph::FromEdges(n, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(DegreeGini(*g), 0.0, 0.02);
}

TEST(DegreeGiniTest, StarGraphHighlyUnequal) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < 100; ++i) edges.emplace_back(0, i);
  const auto g = SocialGraph::FromEdges(100, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(DegreeGini(*g), 0.45);
}

}  // namespace
}  // namespace hosr::graph
