#ifndef SMR_GRAPH_GRAPH_H_
#define SMR_GRAPH_GRAPH_H_

#include <span>
#include <vector>

#include "graph/rank_adjacency.h"

namespace smr {

/// Immutable undirected simple graph: the paper's *data graph* G with n
/// nodes and m edges. Provides sorted adjacency lists, an edge-existence
/// test over them (the edge index assumed throughout Sections 6-7 of the
/// paper; O(log min-degree) per probe with no extra storage), and degree
/// queries. The lists are a RankAdjacency over the canonical edges under
/// the identity order, where a node's rank is its id.
///
/// Self-loops are rejected; duplicate edges are collapsed.
class Graph {
 public:
  /// Builds a graph on nodes [0, num_nodes) from an arbitrary edge list.
  Graph(NodeId num_nodes, std::vector<Edge> edges);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  NodeId num_nodes() const { return adjacency_.num_nodes(); }
  size_t num_edges() const { return edges_.size(); }

  /// Canonical (min,max) edge list, sorted ascending.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Neighbors of u, ascending by node id.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return adjacency_.Row(u);
  }

  size_t Degree(NodeId u) const { return adjacency_.Degree(u); }

  size_t MaxDegree() const { return adjacency_.MaxDegree(); }

  /// Adjacency test over the smaller-degree endpoint's sorted neighbor
  /// list, delegated to the runtime-dispatched membership kernel
  /// (graph/intersect.h): the SIMD paths sweep short lists a whole vector
  /// block per compare and narrow long ones with a branchless binary search;
  /// the scalar fallback is the forward-scan / cmov-search hybrid this
  /// method used to inline. Probing the lists we already store (rather than a
  /// hashed edge set) keeps the index allocation-free.
  bool HasEdge(NodeId u, NodeId v) const;

 private:
  std::vector<Edge> edges_;
  RankAdjacency adjacency_;
};

}  // namespace smr

#endif  // SMR_GRAPH_GRAPH_H_
