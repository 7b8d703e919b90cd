#include "graph/statistics.h"

#include <algorithm>
#include <sstream>

#include "graph/intersect.h"
#include "graph/node_order.h"
#include "graph/rank_adjacency.h"

namespace smr {

std::string GraphStatistics::ToString() const {
  std::ostringstream os;
  os << "n=" << num_nodes << " m=" << num_edges << " max_deg=" << max_degree
     << " mean_deg=" << mean_degree << " p99_deg=" << p99_degree
     << " components=" << connected_components
     << " largest=" << largest_component
     << " clustering=" << clustering_coefficient;
  return os.str();
}

std::vector<size_t> DegreeHistogram(const Graph& graph) {
  std::vector<size_t> histogram(graph.MaxDegree() + 1, 0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    ++histogram[graph.Degree(u)];
  }
  return histogram;
}

std::pair<std::vector<uint32_t>, size_t> ConnectedComponents(
    const Graph& graph) {
  std::vector<uint32_t> label(graph.num_nodes(), UINT32_MAX);
  size_t components = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < graph.num_nodes(); ++start) {
    if (label[start] != UINT32_MAX) continue;
    const uint32_t id = static_cast<uint32_t>(components++);
    label[start] = id;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : graph.Neighbors(u)) {
        if (label[v] == UINT32_MAX) {
          label[v] = id;
          stack.push_back(v);
        }
      }
    }
  }
  return {std::move(label), components};
}

GraphStatistics ComputeStatistics(const Graph& graph) {
  GraphStatistics stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  stats.max_degree = graph.MaxDegree();
  stats.mean_degree =
      graph.num_nodes() == 0
          ? 0
          : 2.0 * static_cast<double>(graph.num_edges()) / graph.num_nodes();

  std::vector<size_t> degrees(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) degrees[u] = graph.Degree(u);
  std::sort(degrees.begin(), degrees.end());
  if (!degrees.empty()) {
    stats.p99_degree = degrees[degrees.size() * 99 / 100];
  }

  const auto [labels, components] = ConnectedComponents(graph);
  stats.connected_components = components;
  std::vector<size_t> sizes(components, 0);
  for (uint32_t l : labels) ++sizes[l];
  for (size_t s : sizes) {
    stats.largest_component = std::max(stats.largest_component, s);
  }

  // Clustering: 3T / number of 2-paths (pairs through a midpoint). The
  // triangle count is computed locally, by intersecting successor lists
  // under the degree order, so this module does not depend on the serial
  // library.
  uint64_t wedges = 0;
  for (size_t d : degrees) wedges += d * (d - 1) / 2;
  if (wedges > 0) {
    const RankAdjacency ranked(
        graph.num_nodes(), RankEdges(graph, NodeOrder::ByDegree(graph)));
    uint64_t triangles = 0;
    for (NodeId r = 0; r < graph.num_nodes(); ++r) {
      const auto successors = ranked.Successors(r);
      for (size_t i = 0; i < successors.size(); ++i) {
        triangles += IntersectCount(successors.subspan(i + 1),
                                    ranked.Successors(successors[i]));
      }
    }
    stats.clustering_coefficient =
        3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
  }
  return stats;
}

}  // namespace smr
