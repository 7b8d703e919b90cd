#ifndef SMR_CQ_CQ_GENERATION_H_
#define SMR_CQ_CQ_GENERATION_H_

#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/sample_graph.h"

namespace smr {

/// Section 3.2 (Theorem 3.1): one CQ per element of the quotient of the
/// symmetric group Sym(p) by the automorphism group of the pattern. Two node
/// orders are equivalent when one is obtained from the other by relabeling
/// the variables with an automorphism; the lexicographically smallest order
/// of each class is kept. The returned CQs together produce every instance
/// of the pattern exactly once.
std::vector<ConjunctiveQuery> GenerateOrderCqs(const SampleGraph& pattern);

/// The same quotient by a subgroup `automorphisms` of the pattern's group
/// (the labeled extension passes the label-preserving automorphisms).
std::vector<ConjunctiveQuery> GenerateOrderCqs(
    const SampleGraph& pattern,
    const std::vector<std::vector<int>>& automorphisms);

/// Section 3.3: merges CQs that share the same edge orientation (identical
/// relational subgoals) by OR-ing their arithmetic conditions. Order of the
/// output follows first appearance of each orientation.
std::vector<ConjunctiveQuery> MergeByOrientation(
    const std::vector<ConjunctiveQuery>& cqs);

/// The full pipeline of Section 3: quotient-group CQs, then orientation
/// merging. This is the CQ set the map-reduce algorithms of Section 4
/// evaluate.
std::vector<ConjunctiveQuery> CqsForSample(const SampleGraph& pattern);

}  // namespace smr

#endif  // SMR_CQ_CQ_GENERATION_H_
