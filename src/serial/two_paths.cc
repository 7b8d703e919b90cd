#include "serial/two_paths.h"

#include <vector>

#include "graph/rank_adjacency.h"

namespace smr {

uint64_t EnumerateProperlyOrderedTwoPaths(
    const Graph& graph, const NodeOrder& order,
    const std::function<void(NodeId, NodeId, NodeId)>& visit,
    CostCounter* cost) {
  const RankAdjacency ranked(graph.num_nodes(), RankEdges(graph, order));
  const std::vector<NodeId> node_of_rank = order.NodesByRank();
  uint64_t found = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto successors = ranked.Successors(order.Rank(v));
    if (cost != nullptr) cost->edges_scanned += successors.size();
    for (size_t i = 0; i < successors.size(); ++i) {
      for (size_t j = i + 1; j < successors.size(); ++j) {
        ++found;
        if (cost != nullptr) {
          ++cost->candidates;
          ++cost->outputs;
        }
        if (visit) {
          visit(node_of_rank[successors[i]], v, node_of_rank[successors[j]]);
        }
      }
    }
  }
  return found;
}

uint64_t CountProperlyOrderedTwoPaths(const Graph& graph) {
  return EnumerateProperlyOrderedTwoPaths(graph, NodeOrder::ByDegree(graph),
                                          nullptr, nullptr);
}

}  // namespace smr
