#include "serial/triangles.h"

#include <array>
#include <vector>

#include "graph/intersect.h"
#include "graph/rank_adjacency.h"
#include "util/arena.h"

namespace smr {

uint64_t EnumerateTriangles(const Graph& graph, const NodeOrder& order,
                            InstanceSink* sink, CostCounter* cost) {
  const RankAdjacency ranked(graph.num_nodes(), RankEdges(graph, order));
  const std::vector<NodeId> node_of_rank = order.NodesByRank();
  Arena arena;
  NodeId* const matches =
      arena.AllocateArray<NodeId>(ranked.MaxDegree() + kIntersectSlack);
  uint64_t found = 0;
  const NodeId n = graph.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    const auto succ = ranked.Successors(order.Rank(u));
    const size_t deg = succ.size();
    if (cost != nullptr) cost->edges_scanned += deg;
    if (deg < 2) continue;
    uint64_t matched = 0;
    for (size_t i = 0; i + 1 < deg; ++i) {
      // All closing edges of the wedges (u, s_i, s_j), j > i, in one
      // intersection: since i < j means s_i precedes s_j in the order,
      // (s_i, s_j) is an edge iff rank(s_j) appears among s_i's successor
      // ranks. Both spans ascend, so the matches come out in ascending j —
      // the same order the per-pair probe loop visited them in.
      const size_t count = IntersectInto(
          succ.subspan(i + 1), ranked.Successors(succ[i]), matches);
      matched += count;
      if (sink != nullptr) {
        const NodeId v = node_of_rank[succ[i]];
        for (size_t k = 0; k < count; ++k) {
          // Successors are sorted by rank, so (u, v, w) is the order-sorted
          // triangle.
          const std::array<NodeId, 3> assignment = {u, v,
                                                    node_of_rank[matches[k]]};
          sink->Emit(assignment);
        }
      }
    }
    found += matched;
    if (cost != nullptr) {
      // Identical totals to the per-pair probe loop this replaces: each of
      // the deg*(deg-1)/2 successor pairs was one candidate and one index
      // probe, and every match was an output.
      const uint64_t pairs = static_cast<uint64_t>(deg) * (deg - 1) / 2;
      cost->candidates += pairs;
      cost->index_probes += pairs;
      cost->outputs += matched;
    }
  }
  return found;
}

uint64_t CountTriangles(const Graph& graph) {
  return EnumerateTriangles(graph, NodeOrder::ByDegree(graph), nullptr,
                            nullptr);
}

}  // namespace smr
