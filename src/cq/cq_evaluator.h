#ifndef SMR_CQ_CQ_EVALUATOR_H_
#define SMR_CQ_CQ_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/node_order.h"
#include "graph/rank_adjacency.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"
#include "util/hashing.h"

namespace smr {

/// Restricts a join to the assignments one reducer owns. Every node of the
/// evaluator's graph has a colour, and `quota[c]` is how many variables may
/// be bound to nodes of colour c: binding a node spends one unit of its
/// colour's quota, backtracking refunds it, and a node whose colour is
/// exhausted is never bound. An evaluation under ownership therefore emits
/// exactly the assignments of the unowned evaluation whose colour multiset
/// is the quota, in the same order.
///
/// Contract, checked by every Evaluate/EvaluateAll call (std::
/// invalid_argument otherwise):
///  * `colour` has one entry per graph node, each in [0, quota.size());
///  * every quota is nonnegative and they total the CQ's variable count;
///  * colours are nondecreasing along the evaluator's node order, so each
///    colour occupies one contiguous range of ranks. NodeOrder::ByBucket
///    with colour = bucket satisfies this, and so does a RankedSubgraph
///    (graph/subgraph.h) built under it.
struct Ownership {
  std::vector<int> colour;
  std::vector<int> quota;

  /// The ownership of a bucket-oriented reducer whose key is the sorted
  /// bucket multiset `own`: the distinct buckets of `own`, ascending, are
  /// the colours, their multiplicities the quota, and local node i (global
  /// id `local_to_global[i]`) takes the colour of its bucket. Throws
  /// std::invalid_argument if a node's bucket is not in `own`.
  static Ownership ForBuckets(std::span<const int> own,
                              std::span<const NodeId> local_to_global,
                              const BucketHasher& hasher);

  /// Throws std::logic_error naming `reducer` and `key` unless the colour
  /// multiset of `assignment` is exactly the quota. Reducers call it on
  /// every emitted assignment: the join already prunes to owned
  /// assignments, so a failure is a bug, never a legitimate skip.
  void RequireOwned(std::span<const NodeId> assignment,
                    std::string_view reducer, uint64_t key) const;
};

/// Evaluates conjunctive queries over the single edge relation E of a data
/// graph (each undirected edge stored once, oriented by a node order). This
/// is the multiway-join-plus-selection of Section 3 run at a reducer — or,
/// standalone, a complete serial algorithm for enumerating instances.
///
/// The join runs in rank space, over one RankAdjacency (graph/
/// rank_adjacency.h): row r lists the neighbour ranks of the node ranked r,
/// ascending, so its predecessors are the prefix below r and its
/// successors the suffix above it. A reducer builds it straight from the
/// edges shipped to it (BuildRankedSubgraph, graph/subgraph.h); the Graph
/// constructor maps the graph's edges to rank pairs (RankEdges) and takes
/// the same build. The join is a backtracking expansion: the plan seeds on the
/// subgoal whose endpoints have the largest summed pattern degree and then
/// binds, at each step, the variable with the most bound pattern
/// neighbours, so cycles close as early as the pattern allows. A step draws
/// its variable from the row of one bound neighbour (the anchor) and closes
/// the subgoals to every other bound neighbour by intersecting their rows
/// (graph/intersect.h), as the serial matcher does; no subgoal is tested by
/// a per-candidate edge probe. The CostCounter prices each merge at one
/// probe per element of the shorter input and one candidate per survivor.
/// Edge-seed steps scan the edges in the order the evaluator was given
/// them, which for a Graph is Graph::edges() order; a pattern node in no
/// edge is bound by scanning ranks ascending.
///
/// The selection is pushed into the join as far as it is sound. Each
/// comparison X_a < X_b the condition entails (all of them, as listed by
/// ConjunctiveQuery::Atoms().entailed) is a necessary condition, so it
/// prunes at the step that binds its later variable. At an anchored step
/// these comparisons, the orientation of every subgoal closed there, and
/// (under Ownership) the rank range of the colours that still have quota
/// cut each row to one rank window [lo, hi) before the intersection
/// (RankWindow, graph/rank_window.h).
///
/// Ownership also gives every variable a static owned-colour window.
/// Colours ascend with rank, so in an owned assignment the i-th smallest
/// variable takes own[i], the i-th smallest colour of the quota's
/// multiset. A variable with k entailed predecessors and j entailed
/// successors can therefore only take colours in [own[k], own[p-1-j]].
/// The window's ranks are computed once per CQ: anchored steps intersect
/// them into [lo, hi), and edge-seed and free steps skip ranks outside
/// them before spending quota. For a CQ whose condition is one total order
/// (each of the square's) the window is a single colour, so a
/// bucket-oriented reducer only ever explores the one bucket each
/// variable can own.
///
/// The exact order-set test (ConjunctiveQuery::OrderAllowed) stays the
/// final selection, as footnote 5 of the paper prescribes, so OR-merged
/// conditions and disequalities are still decided exactly. Pruning only
/// removes branches that could not emit, and a step walks its survivors
/// away from the anchor (ascending above it, descending below it), so for
/// a fixed plan the surviving assignments arrive in the order an unpruned
/// join over the anchor's list would produce them.
class CqEvaluator {
 public:
  /// Evaluates over `graph` under `order`; emitted assignments hold graph
  /// node ids. Nothing of either argument is kept.
  CqEvaluator(const Graph& graph, const NodeOrder& order);

  /// Evaluates in rank space: nodes [0, num_nodes) are their own ranks
  /// (the order is the identity), and `edges` lists every edge once as
  /// (lower rank, higher rank), in the order edge-seed steps scan them.
  /// Throws std::invalid_argument on an endpoint out of range or an edge
  /// that is not ordered so.
  CqEvaluator(NodeId num_nodes, std::vector<Edge> edges);

  /// Enumerates all solutions of `cq` (those owned by `ownership`, when
  /// given); emits assignments (variable -> data node) into `sink`.
  /// Returns the number of solutions.
  uint64_t Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                    CostCounter* cost,
                    const Ownership* ownership = nullptr) const;

  /// Evaluates every CQ in the set; the generation guarantees of Section 3
  /// make the union produce each instance exactly once. The ownership
  /// contract is checked once for the whole set.
  uint64_t EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                       InstanceSink* sink, CostCounter* cost,
                       const Ownership* ownership = nullptr) const;

 private:
  // Each edge once as (lower rank, higher rank), in edge-seed scan order.
  std::vector<Edge> edges_;
  // The rows anchored steps window and intersect, built from edges_. Its
  // MaxDegree sizes the intersection buffers.
  RankAdjacency adjacency_;
  // The node id emitted for each rank.
  std::vector<NodeId> node_of_rank_;
};

/// Adds the cost of a reducer's join to the reducer's cost, all but its
/// outputs: the reducer counts each instance it emits (ReduceContext::
/// EmitInstance), and its sink may drop a solution of the join.
inline void AddJoinCost(CostCounter join, CostCounter* reducer) {
  join.outputs = 0;
  *reducer += join;
}

}  // namespace smr

#endif  // SMR_CQ_CQ_EVALUATOR_H_
