#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

#include "graph/intersect.h"

namespace smr {

namespace {

// The edges as (smaller id, larger id), sorted, without repeats.
std::vector<Edge> CanonicalEdges(NodeId num_nodes, std::vector<Edge> edges) {
  for (Edge& e : edges) {
    if (e.first == e.second) {
      throw std::invalid_argument("self-loop in edge list");
    }
    if (e.first >= num_nodes || e.second >= num_nodes) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u == v) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  return ContainsSorted(Neighbors(u), v);
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : edges_(CanonicalEdges(num_nodes, std::move(edges))),
      adjacency_(num_nodes, edges_) {}

}  // namespace smr
