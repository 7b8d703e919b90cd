#include "core/bucket_oriented.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cq/cq_evaluator.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "util/combinatorics.h"
#include "util/cost_model.h"
#include "util/hashing.h"

namespace smr {

namespace {

// Reducer keys are combinatorial ranks (RankNondecreasing / RankSubset),
// not base-b positional packings: ranks are dense in [0, key_space), which
// the engine's partitioned shuffle needs for balanced key-range splits, and
// they cannot overflow a uint64_t while the key space itself fits — the old
// packing wrapped once b^p > 2^64 (e.g. b=64, p=11) and silently fused
// distinct reducers, corrupting counts. Both encodings order reducers
// identically (lexicographically in the sorted bucket sequence), so metrics
// and emission order are unchanged where the old packing was correct.

/// Sink wrapper used inside reducers: translates local node ids to global
/// and forwards to the reducer context the assignments `keep(local,
/// global)` accepts.
template <typename Keep>
class ReducerSink : public InstanceSink {
 public:
  ReducerSink(const std::vector<NodeId>& local_to_global, Keep keep,
              ReduceContext* context)
      : local_to_global_(local_to_global),
        keep_(std::move(keep)),
        context_(context) {}

  void Emit(std::span<const NodeId> assignment) override {
    scratch_.resize(assignment.size());
    for (size_t i = 0; i < assignment.size(); ++i) {
      scratch_[i] = local_to_global_[assignment[i]];
    }
    if (!keep_(assignment, std::span<const NodeId>(scratch_))) return;
    context_->EmitInstance(scratch_);
  }

 private:
  const std::vector<NodeId>& local_to_global_;
  Keep keep_;
  ReduceContext* context_;
  std::vector<NodeId> scratch_;
};

}  // namespace

MapReduceMetrics BucketOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  const int p = pattern.num_vars();
  if (buckets < 1 || p < 2) throw std::invalid_argument("bad parameters");
  if (!BinomialFitsUint64(buckets + p - 1, p)) {
    throw std::invalid_argument(
        "bucket-oriented reducer key space C(b+p-1, p) exceeds 64 bits; "
        "reduce the bucket count b or the pattern size p");
  }
  const BucketHasher hasher(buckets, seed);
  const NodeOrder order = NodeOrder::ByBucket(graph.num_nodes(), hasher);
  const uint64_t key_space = Binomial(buckets + p - 1, p);
  const BucketKeys keys(buckets, p);

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const Edge oriented = order.Orient(edge);
    const int i = hasher.Bucket(oriented.first);
    const int j = hasher.Bucket(oriented.second);  // i <= j under the order
    keys.ForEach(i, j, [&](uint64_t key) { out->Emit(key, oriented); });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankNondecreasing(key, buckets, p);
    RankedSubgraph local = BuildRankedSubgraph(values, order);
    context->cost->edges_scanned += values.size();
    const CqEvaluator evaluator(local.num_nodes(), std::move(local.edges));
    // The join binds only solutions whose bucket multiset is this
    // reducer's own; every other reducer holding these edges never binds
    // them. The sink re-checks each emitted solution.
    const Ownership ownership =
        Ownership::ForBuckets(own, local.local_to_global, hasher);
    ReducerSink reducer_sink(
        local.local_to_global,
        [&](std::span<const NodeId> local_assignment,
            std::span<const NodeId>) {
          ownership.RequireOwned(local_assignment, "bucket-oriented", key);
          return true;
        },
        context);
    CostCounter join;
    evaluator.EvaluateAll(cqs, &reducer_sink, &join, &ownership);
    AddJoinCost(join, context->cost);
  };

  JobDriver driver(policy);
  // No combiner: the reducers need every edge copy of their local subgraph.
  // Each edge ships exactly one pair per padding (the paper's replication
  // rate C(b+p-3, p-2)), so the engine can presize its scatter buckets.
  const RoundSpec<Edge, Edge> round{"bucket-oriented", map_fn, reduce_fn,
                                    key_space, {},
                                    static_cast<double>(keys.per_edge())};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics GeneralizedPartitionEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int num_groups, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  const int p = pattern.num_vars();
  const int b = num_groups;
  if (p < 3 || b < p) {
    throw std::invalid_argument("generalized Partition needs b >= p >= 3");
  }
  if (!BinomialFitsUint64(b, p)) {
    throw std::invalid_argument(
        "generalized-Partition reducer key space C(b, p) exceeds 64 bits; "
        "reduce the group count b or the pattern size p");
  }
  const BucketHasher hasher(b, seed);
  const uint64_t key_space = Binomial(b, p);
  const NodeOrder order = NodeOrder::Identity(graph.num_nodes());

  // Sends the edge to every p-subset of groups containing its (one or two)
  // groups, extending only subsets of the remaining groups around them.
  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    int i = hasher.Bucket(edge.first);
    int j = hasher.Bucket(edge.second);
    if (i > j) std::swap(i, j);
    std::vector<int> required = {i};
    if (j != i) required.push_back(j);
    ForEachGroupSubsetContaining(
        b, p, required, [&](const std::vector<int>& subset) {
          out->Emit(RankSubset(subset, b), edge);
        });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankSubset(key, b, p);
    RankedSubgraph local = BuildRankedSubgraph(values, order);
    context->cost->edges_scanned += values.size();
    const CqEvaluator evaluator(local.num_nodes(), std::move(local.edges));
    ReducerSink reducer_sink(
        local.local_to_global,
        [&](std::span<const NodeId>, std::span<const NodeId> global) {
          // Canonical-subset de-duplication, as for Partition triangles:
          // pad the instance's distinct groups with the smallest unused
          // group ids; only the canonical reducer emits.
          std::vector<int> distinct;
          for (NodeId node : global) distinct.push_back(hasher.Bucket(node));
          std::sort(distinct.begin(), distinct.end());
          distinct.erase(std::unique(distinct.begin(), distinct.end()),
                         distinct.end());
          for (int candidate = 0;
               static_cast<int>(distinct.size()) < p && candidate < b;
               ++candidate) {
            if (!std::binary_search(distinct.begin(), distinct.end(),
                                    candidate)) {
              distinct.insert(std::lower_bound(distinct.begin(),
                                               distinct.end(), candidate),
                              candidate);
            }
          }
          return distinct == own;
        },
        context);
    CostCounter join;
    evaluator.EvaluateAll(cqs, &reducer_sink, &join);
    AddJoinCost(join, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"generalized-partition", map_fn,
                                    reduce_fn, key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

void ForEachGroupSubsetContaining(
    int b, int p, std::span<const int> required,
    const std::function<void(const std::vector<int>&)>& fn) {
  // Depth-first over candidate groups in ascending order, include-branch
  // first, with required groups forced in — so the subsets arrive in the
  // same lexicographic order the old enumerate-everything mapper produced,
  // but only C(b-|required|, p-|required|) leaves are ever visited.
  std::vector<int> subset;
  subset.reserve(p);
  std::function<void(int, size_t)> recurse = [&](int next, size_t req_i) {
    const int need = p - static_cast<int>(subset.size());
    const int required_left = static_cast<int>(required.size() - req_i);
    if (need == 0) {
      if (required_left == 0) fn(subset);
      return;
    }
    // Prune: not enough groups left, or too few slots for the required.
    if (b - next < need || required_left > need) return;
    const bool is_required =
        req_i < required.size() && required[req_i] == next;
    subset.push_back(next);
    recurse(next + 1, req_i + (is_required ? 1 : 0));
    subset.pop_back();
    if (!is_required) recurse(next + 1, req_i);
  };
  recurse(0, 0);
}

}  // namespace smr
