#ifndef HOSR_GRAPH_STATS_H_
#define HOSR_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "graph/social_graph.h"

namespace hosr::graph {

// Per-order-size statistics of the k-order closure of the social network —
// Table 1 of the paper. Order k counts, for each user, the distinct users
// reachable within <= k hops (excluding the user herself).
struct OrderStats {
  uint32_t order = 0;
  // Fraction of ordered user pairs connected within <= order hops.
  double density = 0.0;
  // Average number of <=k-hop neighbors per user.
  double avg_neighbors_per_user = 0.0;
};

// Exact BFS-based computation up to `max_order` hops. O(n * (n + |A|)).
std::vector<OrderStats> KOrderStats(const SocialGraph& graph,
                                    uint32_t max_order);

// Histogram of users by first-order neighbor count — Fig. 5. Bucket i
// counts users whose degree falls in [edges[i], edges[i+1]); a final
// overflow bucket counts degrees >= edges.back().
struct DegreeHistogram {
  std::vector<uint32_t> bucket_edges;  // ascending
  std::vector<uint64_t> counts;        // size bucket_edges.size()
};

DegreeHistogram ComputeDegreeHistogram(const SocialGraph& graph,
                                       std::vector<uint32_t> bucket_edges);

// Gini coefficient of the degree distribution: ~0 for regular graphs,
// -> 1 for extreme long-tail hubs. Used in tests to assert the generator
// produces the paper's long-tail shape (Fig. 5).
double DegreeGini(const SocialGraph& graph);

}  // namespace hosr::graph

#endif  // HOSR_GRAPH_STATS_H_
