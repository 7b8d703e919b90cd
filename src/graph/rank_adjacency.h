#ifndef SMR_GRAPH_RANK_ADJACENCY_H_
#define SMR_GRAPH_RANK_ADJACENCY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace smr {

/// A node of the data graph.
using NodeId = uint32_t;

/// An undirected edge, stored canonically with first < second (by node id).
using Edge = std::pair<NodeId, NodeId>;

class Graph;
class NodeOrder;

/// The adjacency every enumeration kernel reads, in the rank space of a
/// node order: row r lists the ranks of the neighbours of the node ranked
/// r, ascending. Ranks compare as plain integers, so two rows (or windows
/// of them, graph/rank_window.h) intersect through the vectorized
/// sorted-set kernels (graph/intersect.h) directly.
///
/// A row splits at its own rank: the prefix below r lists the node's
/// predecessors, and the suffix above it its successors, the forward star
/// Γ_<(v) of Lemma 7.1 that the convertible serial algorithms of Section 6
/// expand. Both halves cost O(1) to find.
///
/// Graph holds one over its canonical edges (ranks are ids there),
/// CqEvaluator one over its rank-space edges, and the serial kernels and
/// the ordered-bucket reducer one over RankEdges or a RankedSubgraph
/// (graph/subgraph.h).
class RankAdjacency {
 public:
  /// Builds the rows of nodes [0, num_nodes) from `rank_edges`, each edge
  /// listed once as (lower rank, higher rank). One counting pass sizes the
  /// rows and a second fills them ascending, with no sort. Throws
  /// std::invalid_argument on an edge that is not such a pair below
  /// num_nodes.
  RankAdjacency(NodeId num_nodes, std::span<const Edge> rank_edges);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }

  /// Neighbour ranks of the node ranked r, ascending.
  std::span<const NodeId> Row(NodeId r) const {
    return {ranks_.data() + offsets_[r], ranks_.data() + offsets_[r + 1]};
  }

  /// The part of Row(r) above r.
  std::span<const NodeId> Successors(NodeId r) const {
    return {ranks_.data() + successors_[r], ranks_.data() + offsets_[r + 1]};
  }

  size_t Degree(NodeId r) const { return offsets_[r + 1] - offsets_[r]; }

  /// Longest row: callers size intersection buffers from it.
  size_t MaxDegree() const { return max_degree_; }

 private:
  // Row r is ranks_[offsets_[r] .. offsets_[r + 1]); its successors start
  // at successors_[r].
  std::vector<size_t> offsets_;
  std::vector<size_t> successors_;
  std::vector<NodeId> ranks_;
  size_t max_degree_ = 0;
};

/// The edges of `graph` as (lower rank, higher rank) pairs under `order`,
/// in Graph::edges() order.
std::vector<Edge> RankEdges(const Graph& graph, const NodeOrder& order);

}  // namespace smr

#endif  // SMR_GRAPH_RANK_ADJACENCY_H_
