#include "graph/node_order.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

namespace smr {

namespace {

std::vector<uint32_t> RanksFromSorted(const std::vector<NodeId>& sorted) {
  std::vector<uint32_t> rank(sorted.size());
  for (uint32_t pos = 0; pos < sorted.size(); ++pos) rank[sorted[pos]] = pos;
  return rank;
}

struct PeelResult {
  std::vector<NodeId> removal;  // nodes in peel order
  std::vector<uint32_t> core;   // core number per node
};

// Min-degree peel with lazy deletion: every degree decrement pushes a fresh
// (degree, id) entry; stale entries (degree no longer current, or node
// already removed) are skipped on pop. The (degree, id) key makes the
// min-degree tie-break exactly "smallest id", independent of heap internals.
PeelResult DegeneracyPeel(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  std::vector<uint32_t> deg(n);
  using Entry = std::pair<uint32_t, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (NodeId u = 0; u < n; ++u) {
    deg[u] = static_cast<uint32_t>(graph.Degree(u));
    heap.push({deg[u], u});
  }
  std::vector<char> removed(n, 0);
  PeelResult result;
  result.removal.reserve(n);
  result.core.assign(n, 0);
  uint32_t k = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (removed[u] || d != deg[u]) continue;
    removed[u] = 1;
    k = std::max(k, d);
    result.core[u] = k;
    result.removal.push_back(u);
    for (NodeId v : graph.Neighbors(u)) {
      if (!removed[v]) heap.push({--deg[v], v});
    }
  }
  return result;
}

}  // namespace

NodeOrder NodeOrder::Identity(NodeId num_nodes) {
  std::vector<uint32_t> rank(num_nodes);
  std::iota(rank.begin(), rank.end(), 0u);
  return NodeOrder(std::move(rank));
}

NodeOrder NodeOrder::ByDegree(const Graph& graph) {
  // Counting sort on degree; scanning ids ascending within each bucket
  // yields exactly the (degree, id) order the comparator sort produced,
  // in O(n + max_degree) instead of O(n log n) comparator calls.
  const NodeId n = graph.num_nodes();
  std::vector<uint32_t> bucket_start(graph.MaxDegree() + 2, 0);
  for (NodeId u = 0; u < n; ++u) ++bucket_start[graph.Degree(u) + 1];
  for (size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<uint32_t> rank(n);
  for (NodeId u = 0; u < n; ++u) rank[u] = bucket_start[graph.Degree(u)]++;
  return NodeOrder(std::move(rank));
}

NodeOrder NodeOrder::ByDegeneracy(const Graph& graph) {
  return NodeOrder(RanksFromSorted(DegeneracyPeel(graph).removal));
}

std::vector<uint32_t> CoreNumbers(const Graph& graph) {
  return DegeneracyPeel(graph).core;
}

NodeOrder NodeOrder::ByBucket(NodeId num_nodes, const BucketHasher& hasher) {
  std::vector<NodeId> nodes(num_nodes);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::sort(nodes.begin(), nodes.end(), [&hasher](NodeId a, NodeId b) {
    const int ba = hasher.Bucket(a);
    const int bb = hasher.Bucket(b);
    return ba != bb ? ba < bb : a < b;
  });
  return NodeOrder(RanksFromSorted(nodes));
}

NodeOrder NodeOrder::Reversed() const {
  std::vector<uint32_t> rank(rank_.size());
  const uint32_t top = static_cast<uint32_t>(rank_.size()) - 1;
  for (size_t u = 0; u < rank_.size(); ++u) rank[u] = top - rank_[u];
  return NodeOrder(std::move(rank));
}

OrientedAdjacency::OrientedAdjacency(const Graph& graph,
                                     const NodeOrder& order) {
  // Sort-free build: scanning successors in ascending rank (via the inverse
  // permutation) and appending each to its predecessors' lists writes every
  // list already rank-sorted — O(n + m) total, replacing the per-node
  // comparator sorts.
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> node_of_rank(n);
  for (NodeId u = 0; u < n; ++u) node_of_rank[order.Rank(u)] = u;
  std::vector<size_t> out_degree(n, 0);
  for (const Edge& e : graph.edges()) {
    const Edge oriented = order.Orient(e);
    ++out_degree[oriented.first];
  }
  offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) offsets_[u + 1] = offsets_[u] + out_degree[u];
  nodes_.resize(graph.num_edges());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.begin() + n);
  for (uint32_t rv = 0; rv < n; ++rv) {
    const NodeId v = node_of_rank[rv];
    for (const NodeId w : graph.Neighbors(v)) {
      if (order.Rank(w) < rv) nodes_[cursor[w]++] = v;
    }
  }
}

RankedAdjacency::RankedAdjacency(const Graph& graph, const NodeOrder& order) {
  // Same sort-free scheme as OrientedAdjacency, with both the index and the
  // stored successors in rank space: appending rv in ascending rank order
  // leaves every list an ascending integer sequence — the format the SIMD
  // kernels consume.
  const NodeId n = graph.num_nodes();
  node_of_rank_.resize(n);
  for (NodeId u = 0; u < n; ++u) node_of_rank_[order.Rank(u)] = u;
  std::vector<size_t> out_degree(n, 0);
  for (const Edge& e : graph.edges()) {
    const Edge oriented = order.Orient(e);
    ++out_degree[order.Rank(oriented.first)];
  }
  offsets_.assign(n + 1, 0);
  for (NodeId r = 0; r < n; ++r) {
    offsets_[r + 1] = offsets_[r] + out_degree[r];
    max_out_degree_ = std::max(max_out_degree_, out_degree[r]);
  }
  ranks_.resize(graph.num_edges());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.begin() + n);
  for (uint32_t rv = 0; rv < n; ++rv) {
    const NodeId v = node_of_rank_[rv];
    for (const NodeId w : graph.Neighbors(v)) {
      const uint32_t rw = order.Rank(w);
      if (rw < rv) ranks_[cursor[rw]++] = rv;
    }
  }
}

}  // namespace smr
