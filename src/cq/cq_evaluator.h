#ifndef SMR_CQ_CQ_EVALUATOR_H_
#define SMR_CQ_CQ_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/node_order.h"
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
///    with colour = bucket satisfies this, and NodeOrder::Project keeps it.
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
/// The join runs in rank space. The evaluator keeps one adjacency indexed
/// by node rank, each row listing the neighbours' ranks ascending, so a
/// node's predecessors are the prefix of its row below its own rank and its
/// successors the suffix above it. The join is a backtracking expansion:
/// the plan seeds on the subgoal whose endpoints have the largest summed
/// pattern degree and then binds, at each step, the variable with the most
/// bound pattern neighbours, so cycles close as early as the pattern
/// allows. A step draws its variable from the row of one bound neighbour
/// (the anchor) and closes the subgoals to every other bound neighbour by
/// intersecting their rows (graph/intersect.h), as the serial matcher
/// does; no subgoal is tested by a per-candidate edge probe. The
/// CostCounter prices each merge at one probe per element of the shorter
/// input and one candidate per survivor.
///
/// The selection is pushed into the join as far as it is sound. Each
/// comparison X_a < X_b the condition entails (all of them, as listed by
/// ConjunctiveQuery::Atoms().entailed) is a necessary condition, so it
/// prunes at the step that binds its later variable. At an anchored step these
/// comparisons, the orientation of every subgoal closed there, and (under
/// Ownership) the rank range of the colours that still have quota cut each
/// row to one rank window [lo, hi) before the intersection (RankWindow,
/// graph/rank_window.h). The exact order-set test (ConjunctiveQuery::
/// OrderAllowed) stays the final selection, as footnote 5 of the paper
/// prescribes, so OR-merged conditions and disequalities are still decided
/// exactly. Pruning only removes branches that could not emit, and a step
/// walks its survivors away from the anchor (ascending above it,
/// descending below it), so for a fixed plan the surviving assignments
/// arrive in the order an unpruned join over the anchor's list would
/// produce them.
class CqEvaluator {
 public:
  /// `graph` must outlive the evaluator; the order is copied.
  CqEvaluator(const Graph& graph, NodeOrder order);

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

  const Graph& graph() const { return *graph_; }
  const NodeOrder& order() const { return order_; }

 private:
  const Graph* graph_;
  NodeOrder order_;
  // Rank-space adjacency: the neighbours of the node ranked r are the
  // ranks neighbours_[offsets_[r] .. offsets_[r + 1]), ascending.
  std::vector<size_t> offsets_;
  std::vector<NodeId> neighbours_;
  std::vector<NodeId> node_of_rank_;
};

}  // namespace smr

#endif  // SMR_CQ_CQ_EVALUATOR_H_
