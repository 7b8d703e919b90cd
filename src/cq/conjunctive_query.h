#ifndef SMR_CQ_CONJUNCTIVE_QUERY_H_
#define SMR_CQ_CONJUNCTIVE_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/sample_graph.h"

namespace smr {

/// A conjunctive query with arithmetic comparisons (Section 3): one
/// relational subgoal E(X_a, X_b) per sample-graph edge — the pair (a, b) is
/// *directed*, meaning the data nodes bound to the variables must satisfy
/// node_a < node_b in the data-graph node order — plus an arithmetic
/// condition on the variables.
///
/// The condition is represented exactly as the set of admissible total
/// orders of the variables (each order lists variables from smallest to
/// largest). A CQ generated from a single node ordering has a one-element
/// set; merging CQs with identical edge orientations (Section 3.3) takes
/// the union, which is precisely the logical OR of the arithmetic
/// conditions (footnote 5 of the paper allows conditions that are not
/// conjunctions of simple comparisons — they are applied as a selection at
/// the end of the Reduce function). The comparison atoms every admissible
/// order entails (Atoms().entailed) are necessary conditions, so
/// CqEvaluator also prunes with them inside the join.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery(int num_vars, std::vector<std::pair<int, int>> subgoals,
                   std::vector<std::vector<int>> allowed_orders);

  /// Builds the CQ for one total order of the variables of `pattern`
  /// (Section 3.1): subgoal E(a, b) for each pattern edge with a preceding
  /// b in `order`, condition = exactly that order. `order[i]` is the
  /// variable in position i (smallest first).
  static ConjunctiveQuery ForOrder(const SampleGraph& pattern,
                                   const std::vector<int>& order);

  int num_vars() const { return num_vars_; }

  /// Directed subgoals, sorted; (a, b) stands for E(X_a, X_b).
  const std::vector<std::pair<int, int>>& subgoals() const { return subgoals_; }

  /// Admissible total orders, sorted lexicographically.
  const std::vector<std::vector<int>>& allowed_orders() const {
    return allowed_orders_;
  }

  /// True iff the given total order of the variables satisfies the
  /// condition. `order[i]` = variable in position i.
  bool OrderAllowed(const std::vector<int>& order) const;

  /// Merges another CQ with identical subgoals into this one by OR-ing the
  /// conditions. Throws if the subgoals differ.
  void MergeCondition(const ConjunctiveQuery& other);

  /// The comparison atoms entailed by the condition: the pairs (a, b) such
  /// that X_a < X_b in *every* admissible order, in full and as a
  /// transitively reduced list, plus the pairs left unordered (printed as
  /// X_a != X_b, which is how Fig. 7 of the paper displays OR-merged
  /// conditions).
  struct ConditionAtoms {
    std::vector<std::pair<int, int>> entailed;   // transitively closed
    std::vector<std::pair<int, int>> less;       // transitive reduction
    std::vector<std::pair<int, int>> unordered;  // a < b positionally
  };
  ConditionAtoms Atoms() const;

  /// True iff the order set is *exactly* the set of total orders satisfying
  /// the entailed partial order (so the Fig. 7-style display is lossless).
  bool ConditionIsPartialOrderExact() const;

  /// Display using the given variable names (defaults to X0, X1, ...).
  std::string ToString(const std::vector<std::string>& names = {}) const;

 private:
  /// before[a][b]: X_a < X_b in every admissible order.
  std::vector<std::vector<bool>> EntailedBefore() const;

  int num_vars_;
  std::vector<std::pair<int, int>> subgoals_;
  std::vector<std::vector<int>> allowed_orders_;
};

}  // namespace smr

#endif  // SMR_CQ_CONJUNCTIVE_QUERY_H_
