#ifndef SMR_CORE_BUCKET_ORIENTED_H_
#define SMR_CORE_BUCKET_ORIENTED_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {

/// Bucket-oriented processing (Section 4.5) for an arbitrary sample graph S
/// with p nodes: every variable shares one hash function with b buckets,
/// nodes are ordered by (bucket, id) as in Section 2.3, and one reducer
/// exists per nondecreasing sequence of p bucket numbers — C(b+p-1, p) of
/// them (Theorem 4.2). Each edge is shipped to C(b+p-3, p-2) reducers: its
/// two bucket numbers plus any multiset of p-2 more.
///
/// Each reducer evaluates the whole CQ set for S (Section 3) on its local
/// subgraph under an Ownership quota (cq/cq_evaluator.h), so its join only
/// ever binds solutions whose bucket multiset is its own and every instance
/// is emitted exactly once. Summed over all reducers, that keeps the
/// computation cost within a constant factor of the serial algorithm's
/// (Section 6).
///
/// `cqs` must be the CQ set for `pattern` (from CqsForSample); it is taken
/// as a parameter so callers can reuse it across runs. If `job` is
/// non-null it receives the JobMetrics of the (single-round) pipeline.
MapReduceMetrics BucketOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// The generalization of the Partition algorithm to p-node sample graphs
/// that Section 4.5 compares against: nodes are partitioned into b groups,
/// one reducer per p-subset of distinct groups, and every edge goes to all
/// subsets containing its (one or two) groups. Implemented as the baseline
/// for the 1 + 1/(p-1) replication-ratio experiment. Requires b >= p >= 3.
MapReduceMetrics GeneralizedPartitionEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int num_groups, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// Calls `fn` once for every strictly increasing p-subset of [0, b) that
/// contains all of `required` (sorted, distinct), in lexicographic order.
/// This is the generalized-Partition mapper's destination set: extending
/// only subsets of the b-|required| non-required groups, it does
/// C(b-|required|, p-|required|) work — the old mapper enumerated all
/// C(b, p) subsets and filtered, which dwarfs the useful emissions as soon
/// as b grows past p. Exposed for the equivalence regression test.
void ForEachGroupSubsetContaining(
    int b, int p, std::span<const int> required,
    const std::function<void(const std::vector<int>&)>& fn);

}  // namespace smr

#endif  // SMR_CORE_BUCKET_ORIENTED_H_
