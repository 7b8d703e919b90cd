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
class NodeOrder {
 public:
  /// Identity order: u < v iff u's id < v's id.
  static NodeOrder Identity(NodeId num_nodes);

  /// Nondecreasing degree, ties broken by node id.
  static NodeOrder ByDegree(const Graph& graph);

  /// Degeneracy (k-core peeling) order: repeatedly remove a minimum-degree
  /// node (ties by id) from the remaining graph; rank = removal position.
  /// Every node's forward-star under this order has at most `degeneracy(G)`
  /// successors — for real-world sparse graphs far below the max degree the
  /// degree order can leave at the tail — so the successor lists the serial
  /// kernels intersect stay short and cache-resident. Implemented with a
  /// lazy-deletion min-heap keyed (remaining degree, id), O(m log n), so the
  /// tie-break is exactly by id and the order is fully deterministic.
  static NodeOrder ByDegeneracy(const Graph& graph);

  /// Bucket-then-id order of Section 2.3 built from `hasher`.
  static NodeOrder ByBucket(NodeId num_nodes, const BucketHasher& hasher);

  /// The reverse order (u < v here iff v < u there). Building an
  /// OrientedAdjacency over the reversed order yields predecessor lists.
  NodeOrder Reversed() const;

  /// Rank (position) of node u in the order; ranks are a permutation of
  /// [0, num_nodes).
  uint32_t Rank(NodeId u) const { return rank_[u]; }

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

/// Core number (largest k such that the node is in a k-core) of every node;
/// the maximum entry is the graph's degeneracy. Computed by the same peel
/// that ByDegeneracy ranks by.
std::vector<uint32_t> CoreNumbers(const Graph& graph);

/// Forward-star adjacency under a node order: for each node u, the neighbors
/// v with u < v, sorted ascending by rank. This is the Γ_<(v) structure of
/// Lemma 7.1 and the workhorse of all the serial kernels.
class OrientedAdjacency {
 public:
  OrientedAdjacency(const Graph& graph, const NodeOrder& order);

  std::span<const NodeId> Successors(NodeId u) const {
    return {nodes_.data() + offsets_[u], nodes_.data() + offsets_[u + 1]};
  }

  size_t OutDegree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

 private:
  std::vector<size_t> offsets_;
  std::vector<NodeId> nodes_;
};

/// The same forward-star structure mapped into *rank space*: indexed by a
/// node's rank, listing successor ranks ascending. Because ranks are ordered
/// by plain integer comparison, two successor lists can be intersected by
/// the vectorized sorted-set kernels (graph/intersect.h) directly — the
/// id-space lists of OrientedAdjacency are sorted by rank, an order SIMD
/// value compares cannot see. NodeOfRank maps results back to node ids for
/// emission.
class RankedAdjacency {
 public:
  RankedAdjacency(const Graph& graph, const NodeOrder& order);

  /// Successor ranks of the node ranked `rank`, ascending.
  std::span<const NodeId> SuccessorRanks(uint32_t rank) const {
    return {ranks_.data() + offsets_[rank], ranks_.data() + offsets_[rank + 1]};
  }

  size_t OutDegree(uint32_t rank) const {
    return offsets_[rank + 1] - offsets_[rank];
  }

  NodeId NodeOfRank(uint32_t rank) const { return node_of_rank_[rank]; }

  /// Largest out-degree — callers size intersection scratch from this.
  size_t MaxOutDegree() const { return max_out_degree_; }

 private:
  std::vector<size_t> offsets_;
  std::vector<NodeId> ranks_;
  std::vector<NodeId> node_of_rank_;
  size_t max_out_degree_ = 0;
};

}  // namespace smr

#endif  // SMR_GRAPH_NODE_ORDER_H_
