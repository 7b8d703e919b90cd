#include "graph/subgraph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace smr {

Subgraph BuildSubgraph(std::span<const Edge> edges) {
  std::vector<NodeId> nodes;
  nodes.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    nodes.push_back(e.first);
    nodes.push_back(e.second);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  auto local_id = [&nodes](NodeId global) {
    return static_cast<NodeId>(
        std::lower_bound(nodes.begin(), nodes.end(), global) - nodes.begin());
  };
  std::vector<Edge> local_edges;
  local_edges.reserve(edges.size());
  for (const Edge& e : edges) {
    local_edges.emplace_back(local_id(e.first), local_id(e.second));
  }
  return Subgraph{Graph(static_cast<NodeId>(nodes.size()),
                        std::move(local_edges)),
                  std::move(nodes)};
}

RankedSubgraph BuildRankedSubgraph(std::span<const Edge> edges,
                                   const NodeOrder& order) {
  RankedSubgraph local;
  if (edges.empty()) return local;
  std::vector<Edge>& canonical = local.edges;
  canonical.reserve(edges.size());
  bool sorted = true;
  for (const auto& [u, v] : edges) {
    if (u == v) throw std::invalid_argument("self-loop in edge list");
    const Edge e(std::min(u, v), std::max(u, v));
    sorted = sorted && (canonical.empty() || canonical.back() < e);
    canonical.push_back(e);
  }
  if (!sorted) {
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
  }

  uint32_t lo = std::numeric_limits<uint32_t>::max();
  uint32_t hi = 0;
  for (const auto& [u, v] : canonical) {
    lo = std::min({lo, order.Rank(u), order.Rank(v)});
    hi = std::max({hi, order.Rank(u), order.Rank(v)});
  }
  // slot[g - lo] first holds the node of global rank g (kAbsent if no edge
  // touches it), then, after an ascending scan, that node's local rank.
  constexpr NodeId kAbsent = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> slot(static_cast<size_t>(hi - lo) + 1, kAbsent);
  for (const auto& [u, v] : canonical) {
    slot[order.Rank(u) - lo] = u;
    slot[order.Rank(v) - lo] = v;
  }
  for (NodeId& s : slot) {
    if (s == kAbsent) continue;
    const NodeId local_rank = local.num_nodes();
    local.local_to_global.push_back(s);
    s = local_rank;
  }
  for (auto& [u, v] : canonical) {
    const NodeId a = slot[order.Rank(u) - lo];
    const NodeId b = slot[order.Rank(v) - lo];
    u = std::min(a, b);
    v = std::max(a, b);
  }
  return local;
}

}  // namespace smr
