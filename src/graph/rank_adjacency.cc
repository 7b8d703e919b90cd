#include "graph/rank_adjacency.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/graph.h"
#include "graph/node_order.h"

namespace smr {

RankAdjacency::RankAdjacency(NodeId num_nodes,
                             std::span<const Edge> rank_edges)
    : offsets_(static_cast<size_t>(num_nodes) + 1, 0),
      successors_(num_nodes, 0) {
  // Two-pass counting fill. The first pass writes each row unsorted and
  // counts each node's predecessors; the second walks those rows by
  // ascending rank t and appends t to the row of each neighbour, which
  // leaves every row ascending without a sort.
  for (const auto& [r, s] : rank_edges) {
    if (r >= s || s >= num_nodes) {
      throw std::invalid_argument(
          "rank-space edge (" + std::to_string(r) + ", " + std::to_string(s) +
          ") is not an ordered pair of ranks below " +
          std::to_string(num_nodes));
    }
    ++offsets_[r + 1];
    ++offsets_[s + 1];
    ++successors_[s];
  }
  for (NodeId r = 0; r < num_nodes; ++r) {
    max_degree_ = std::max(max_degree_, offsets_[r + 1]);
    offsets_[r + 1] += offsets_[r];
    successors_[r] += offsets_[r];
  }
  std::vector<NodeId> unsorted(offsets_[num_nodes]);
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [r, s] : rank_edges) {
    unsorted[cursor[r]++] = s;
    unsorted[cursor[s]++] = r;
  }
  ranks_.resize(unsorted.size());
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  for (NodeId t = 0; t < num_nodes; ++t) {
    for (size_t i = offsets_[t]; i < offsets_[t + 1]; ++i) {
      ranks_[cursor[unsorted[i]]++] = t;
    }
  }
}

std::vector<Edge> RankEdges(const Graph& graph, const NodeOrder& order) {
  std::vector<Edge> edges;
  edges.reserve(graph.num_edges());
  for (const auto& [u, v] : graph.edges()) {
    const uint32_t ru = order.Rank(u);
    const uint32_t rv = order.Rank(v);
    edges.emplace_back(std::min(ru, rv), std::max(ru, rv));
  }
  return edges;
}

}  // namespace smr
