#include "graph/stats.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "util/thread_pool.h"

namespace hosr::graph {

namespace {

// Breadth-first counts of distinct nodes within <= k hops for every
// k in [1, max_order], from a single source. `visited` and `frontier`
// are caller-provided scratch to avoid per-source allocation.
void BfsOrderCounts(const CsrMatrix& adj, uint32_t source, uint32_t max_order,
                    std::vector<uint32_t>* visited_epoch, uint32_t epoch,
                    std::vector<uint32_t>* frontier,
                    std::vector<uint32_t>* next_frontier,
                    std::vector<uint64_t>* counts_by_order) {
  (*visited_epoch)[source] = epoch;
  frontier->clear();
  frontier->push_back(source);
  uint64_t reached = 0;
  for (uint32_t depth = 1; depth <= max_order; ++depth) {
    next_frontier->clear();
    for (const uint32_t u : *frontier) {
      for (size_t k = adj.row_begin(u); k < adj.row_end(u); ++k) {
        const uint32_t v = adj.col_idx()[k];
        if ((*visited_epoch)[v] != epoch) {
          (*visited_epoch)[v] = epoch;
          next_frontier->push_back(v);
        }
      }
    }
    reached += next_frontier->size();
    (*counts_by_order)[depth - 1] += reached;
    std::swap(*frontier, *next_frontier);
    if (frontier->empty()) {
      // Remaining orders see the same closure.
      for (uint32_t d = depth + 1; d <= max_order; ++d) {
        (*counts_by_order)[d - 1] += reached;
      }
      break;
    }
  }
}

}  // namespace

std::vector<OrderStats> KOrderStats(const SocialGraph& graph,
                                    uint32_t max_order) {
  HOSR_CHECK(max_order >= 1);
  const CsrMatrix& adj = graph.adjacency();
  const uint32_t n = graph.num_users();

  // Each chunk counts into its own vector and adds it into the totals, so
  // the sums do not depend on how ParallelFor splits the users.
  std::vector<std::atomic<uint64_t>> totals(max_order);
  util::ParallelFor(
      0, n,
      [&](size_t begin, size_t end) {
        std::vector<uint64_t> counts(max_order, 0);
        std::vector<uint32_t> visited_epoch(n, 0);
        std::vector<uint32_t> frontier, next_frontier;
        uint32_t epoch = 0;
        for (size_t u = begin; u < end; ++u) {
          ++epoch;
          BfsOrderCounts(adj, static_cast<uint32_t>(u), max_order,
                         &visited_epoch, epoch, &frontier, &next_frontier,
                         &counts);
        }
        for (uint32_t k = 0; k < max_order; ++k) {
          totals[k].fetch_add(counts[k]);
        }
      },
      /*min_chunk=*/64);

  std::vector<OrderStats> stats(max_order);
  const double pairs = static_cast<double>(n) * (n > 0 ? n - 1 : 0);
  for (uint32_t k = 0; k < max_order; ++k) {
    stats[k].order = k + 1;
    stats[k].avg_neighbors_per_user =
        n > 0 ? static_cast<double>(totals[k]) / n : 0.0;
    stats[k].density = pairs > 0 ? static_cast<double>(totals[k]) / pairs : 0.0;
  }
  return stats;
}

DegreeHistogram ComputeDegreeHistogram(const SocialGraph& graph,
                                       std::vector<uint32_t> bucket_edges) {
  HOSR_CHECK(!bucket_edges.empty());
  HOSR_CHECK(std::is_sorted(bucket_edges.begin(), bucket_edges.end()));
  DegreeHistogram hist;
  hist.bucket_edges = std::move(bucket_edges);
  hist.counts.assign(hist.bucket_edges.size(), 0);
  for (uint32_t u = 0; u < graph.num_users(); ++u) {
    const uint32_t degree = graph.Degree(u);
    // Find the last bucket whose lower edge is <= degree.
    const auto it = std::upper_bound(hist.bucket_edges.begin(),
                                     hist.bucket_edges.end(), degree);
    if (it == hist.bucket_edges.begin()) continue;  // below the first edge
    const size_t bucket =
        static_cast<size_t>(it - hist.bucket_edges.begin()) - 1;
    ++hist.counts[bucket];
  }
  return hist;
}

double DegreeGini(const SocialGraph& graph) {
  const uint32_t n = graph.num_users();
  if (n == 0) return 0.0;
  std::vector<uint32_t> degrees(n);
  for (uint32_t u = 0; u < n; ++u) degrees[u] = graph.Degree(u);
  std::sort(degrees.begin(), degrees.end());
  const double total =
      std::accumulate(degrees.begin(), degrees.end(), 0.0);
  if (total == 0.0) return 0.0;
  double weighted = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    weighted += static_cast<double>(i + 1) * degrees[i];
  }
  return (2.0 * weighted) / (n * total) - (static_cast<double>(n) + 1) / n;
}

}  // namespace hosr::graph
