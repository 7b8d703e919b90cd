#ifndef SMR_GRAPH_NODE_ORDER_H_
#define SMR_GRAPH_NODE_ORDER_H_

#include <vector>

#include "graph/graph.h"
#include "util/hashing.h"

namespace smr {

/// A total order `<` on the nodes of a data graph. The paper's relation
/// E(X, Y) contains each undirected edge exactly once, oriented so that the
/// first argument precedes the second in this order (Section 2.2).
///
/// Three orders are used in the paper:
///  * identity (plain node ids),
///  * nondecreasing degree, ties by id (Lemma 7.1 and the classic O(m^{3/2})
///    triangle algorithm), and
///  * bucket-then-id (Section 2.3): node u is ranked by (h(u), u), which
///    makes bucket lists of instances nondecreasing and lets most reducers
///    be skipped (Theorem 4.2).
///
/// A NodeOrder is only the rank table. The adjacency the kernels expand
/// under it is a RankAdjacency over RankEdges(graph, order).
class NodeOrder {
 public:
  /// Identity order: u < v iff u's id < v's id.
  static NodeOrder Identity(NodeId num_nodes);

  /// Nondecreasing degree, ties broken by node id.
  static NodeOrder ByDegree(const Graph& graph);

  /// Bucket-then-id order of Section 2.3 built from `hasher`.
  static NodeOrder ByBucket(NodeId num_nodes, const BucketHasher& hasher);

  /// Rank (position) of node u in the order; ranks are a permutation of
  /// [0, num_nodes).
  uint32_t Rank(NodeId u) const { return rank_[u]; }

  /// The inverse of Rank: entry r is the node ranked r. Kernels that work
  /// in rank space (graph/rank_adjacency.h) map ranks back to node ids
  /// through it to emit.
  std::vector<NodeId> NodesByRank() const;

  bool Less(NodeId u, NodeId v) const { return rank_[u] < rank_[v]; }

  NodeId num_nodes() const { return static_cast<NodeId>(rank_.size()); }

  /// Orients an undirected edge so that the first endpoint precedes the
  /// second in this order.
  Edge Orient(Edge e) const {
    if (!Less(e.first, e.second)) std::swap(e.first, e.second);
    return e;
  }

 private:
  explicit NodeOrder(std::vector<uint32_t> rank) : rank_(std::move(rank)) {}

  std::vector<uint32_t> rank_;
};

}  // namespace smr

#endif  // SMR_GRAPH_NODE_ORDER_H_
