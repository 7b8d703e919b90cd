#ifndef SMR_GRAPH_RANK_WINDOW_H_
#define SMR_GRAPH_RANK_WINDOW_H_

#include <algorithm>
#include <span>

#include "graph/rank_adjacency.h"

namespace smr {

/// The part of `ranks` — an ascending list of node ranks, as a
/// RankAdjacency row (graph/rank_adjacency.h) stores them — that lies in
/// [lo, hi). The part is contiguous, so two binary searches find it, the
/// second starting where the first ended; an empty span when lo >= hi.
/// RankAdjacency::Successors already gives the cut at a row's own rank in
/// O(1); RankWindow is for the other cuts.
///
/// This is how the rank-space reducers cut a row to what a step may bind:
/// the ordered-bucket triangle reducer cuts a successor row to one
/// bucket's local ranks, and CqEvaluator cuts to the ranks its order
/// atoms, subgoal orientations and ownership quota leave open. Two windows
/// then close a cycle through IntersectInto (graph/intersect.h), whose
/// output buffer needs room for the shorter window plus kIntersectSlack.
inline std::span<const NodeId> RankWindow(std::span<const NodeId> ranks,
                                          NodeId lo, NodeId hi) {
  const auto first = std::lower_bound(ranks.begin(), ranks.end(), lo);
  const auto last = std::lower_bound(first, ranks.end(), hi);
  return {first, last};
}

}  // namespace smr

#endif  // SMR_GRAPH_RANK_WINDOW_H_
