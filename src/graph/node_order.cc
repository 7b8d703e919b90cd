#include "graph/node_order.h"

#include <algorithm>
#include <numeric>

namespace smr {

namespace {

std::vector<uint32_t> RanksFromSorted(const std::vector<NodeId>& sorted) {
  std::vector<uint32_t> rank(sorted.size());
  for (uint32_t pos = 0; pos < sorted.size(); ++pos) rank[sorted[pos]] = pos;
  return rank;
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

std::vector<NodeId> NodeOrder::NodesByRank() const {
  std::vector<NodeId> nodes(rank_.size());
  for (NodeId u = 0; u < rank_.size(); ++u) nodes[rank_[u]] = u;
  return nodes;
}

}  // namespace smr
