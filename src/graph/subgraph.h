#ifndef SMR_GRAPH_SUBGRAPH_H_
#define SMR_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/node_order.h"

namespace smr {

/// A compact relabeled graph built from the edges delivered to one reducer.
/// Reducers must not allocate O(n) state for the whole data graph (there can
/// be ~b^p of them), so local node ids are assigned densely and
/// `local_to_global` maps them back.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> local_to_global;
};

/// Builds the relabeled subgraph spanned by `edges` (global ids).
/// `local_to_global` is sorted ascending, so identity ordering of local ids
/// coincides with identity ordering of global ids.
Subgraph BuildSubgraph(std::span<const Edge> edges);

/// A reducer's subgraph in the rank space of a global node order. Local
/// node i is the endpoint with the i-th smallest global rank, so local ids
/// are the local order's ranks and `edges` is a RankAdjacency's input
/// (graph/rank_adjacency.h): CqEvaluator's rank-space constructor builds
/// one from it, and so does the ordered-bucket triangle reducer.
struct RankedSubgraph {
  /// Local node i is global node local_to_global[i].
  std::vector<NodeId> local_to_global;
  NodeId num_nodes() const {
    return static_cast<NodeId>(local_to_global.size());
  }
  /// Each edge once as (lower local rank, higher local rank), listed in
  /// the canonical order of the global ids, (smaller id, larger id)
  /// ascending, which is the order Graph::edges() gives.
  std::vector<Edge> edges;
};

/// Builds the ranked subgraph spanned by `edges` (global ids, in any
/// orientation and order, repeats allowed) under `order`. Costs one pass
/// over the edges (plus a sort if they do not arrive canonical and sorted)
/// and one over the global rank span [min rank, max rank] of their
/// endpoints, which it relabels through a dense map. Throws
/// std::invalid_argument on a self-loop.
RankedSubgraph BuildRankedSubgraph(std::span<const Edge> edges,
                                   const NodeOrder& order);

}  // namespace smr

#endif  // SMR_GRAPH_SUBGRAPH_H_
