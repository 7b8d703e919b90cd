#include "labeled/labeled_enumeration.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "util/combinatorics.h"

namespace smr {

std::vector<LabeledCq> LabeledCqsForSample(const LabeledSampleGraph& pattern) {
  // Labels are a function of the unordered pattern edge, so CQs merged for
  // equal subgoals always agree on labels.
  std::vector<LabeledCq> labeled;
  for (ConjunctiveQuery& cq : MergeByOrientation(
           GenerateOrderCqs(pattern.skeleton(), pattern.Automorphisms()))) {
    std::vector<EdgeLabel> labels;
    labels.reserve(cq.subgoals().size());
    for (const auto& [a, b] : cq.subgoals()) {
      labels.push_back(pattern.LabelOf(a, b));
    }
    labeled.push_back(LabeledCq{std::move(cq), std::move(labels)});
  }
  return labeled;
}

uint64_t EnumerateLabeledInstances(const LabeledSampleGraph& pattern,
                                   const LabeledGraph& graph,
                                   InstanceSink* sink, CostCounter* cost) {
  const SampleGraph& skeleton = pattern.skeleton();
  const int p = skeleton.num_vars();
  const auto& automorphisms = pattern.Automorphisms();

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> bound(p, false);
  uint64_t found = 0;

  // Variable order: each new variable adjacent to a bound one when possible.
  std::vector<int> var_order;
  {
    std::vector<bool> placed(p, false);
    for (int step = 0; step < p; ++step) {
      int best = -1;
      int best_bound = -1;
      for (int v = 0; v < p; ++v) {
        if (placed[v]) continue;
        int bound_nbrs = 0;
        for (int w : skeleton.Neighbors(v)) {
          if (placed[w]) ++bound_nbrs;
        }
        if (bound_nbrs > best_bound) {
          best = v;
          best_bound = bound_nbrs;
        }
      }
      placed[best] = true;
      var_order.push_back(best);
    }
  }

  std::function<void(size_t)> match = [&](size_t depth) {
    if (depth == var_order.size()) {
      bool canonical = true;
      for (const auto& mu : automorphisms) {
        for (int x = 0; x < p; ++x) {
          const NodeId lhs = assignment[x];
          const NodeId rhs = assignment[mu[x]];
          if (lhs < rhs) break;
          if (lhs > rhs) {
            canonical = false;
            break;
          }
        }
        if (!canonical) break;
      }
      if (!canonical) return;
      ++found;
      if (cost != nullptr) ++cost->outputs;
      if (sink != nullptr) sink->Emit(assignment);
      return;
    }
    const int var = var_order[depth];
    int anchor = -1;
    for (int nbr : skeleton.Neighbors(var)) {
      if (bound[nbr]) {
        anchor = nbr;
        break;
      }
    }
    auto try_node = [&](NodeId node) {
      if (cost != nullptr) ++cost->candidates;
      for (int x = 0; x < p; ++x) {
        if (bound[x] && assignment[x] == node) return;
      }
      for (int nbr : skeleton.Neighbors(var)) {
        if (!bound[nbr]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasLabeledEdge(node, assignment[nbr],
                                  pattern.LabelOf(var, nbr))) {
          return;
        }
      }
      assignment[var] = node;
      bound[var] = true;
      match(depth + 1);
      bound[var] = false;
    };
    if (anchor >= 0) {
      for (NodeId node : graph.skeleton().Neighbors(assignment[anchor])) {
        try_node(node);
      }
    } else {
      for (NodeId node = 0; node < graph.num_nodes(); ++node) {
        try_node(node);
      }
    }
  };
  match(0);
  return found;
}

// Reducer keys are combinatorial multiset ranks (RankNondecreasing): dense
// in the declared key space C(b+p-1, p) — which the engine's partitioned
// shuffle needs for balanced key ranges — and free of the uint64_t wrap
// that base-b positional packing hits once b^p > 2^64.

MapReduceMetrics LabeledBucketOrientedEnumerate(
    const LabeledSampleGraph& pattern, const LabeledGraph& graph, int buckets,
    uint64_t seed, InstanceSink* sink, const ExecutionPolicy& policy,
    JobMetrics* job) {
  const int p = pattern.num_vars();
  if (!BinomialFitsUint64(buckets + p - 1, p)) {
    throw std::invalid_argument(
        "labeled bucket-oriented reducer key space C(b+p-1, p) exceeds 64 "
        "bits; reduce the bucket count b or the pattern size p");
  }
  const BucketHasher hasher(buckets, seed);
  const NodeOrder order = NodeOrder::ByBucket(graph.num_nodes(), hasher);
  const uint64_t key_space = Binomial(buckets + p - 1, p);
  const auto cqs = LabeledCqsForSample(pattern);
  const BucketKeys keys(buckets, p);

  auto map_fn = [&](const LabeledEdge& edge, Emitter<LabeledEdge>* out) {
    const Edge oriented = order.Orient({edge.u, edge.v});
    const int i = hasher.Bucket(oriented.first);
    const int j = hasher.Bucket(oriented.second);  // i <= j under the order
    const LabeledEdge value{oriented.first, oriented.second, edge.label};
    keys.ForEach(i, j, [&](uint64_t key) { out->Emit(key, value); });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const LabeledEdge> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankNondecreasing(key, buckets, p);
    std::vector<Edge> skeleton_edges;
    skeleton_edges.reserve(values.size());
    for (const auto& e : values) skeleton_edges.emplace_back(e.u, e.v);
    RankedSubgraph local = BuildRankedSubgraph(skeleton_edges, order);
    context->cost->edges_scanned += values.size();
    const CqEvaluator evaluator(local.num_nodes(), std::move(local.edges));
    // The join binds only solutions whose bucket multiset is this
    // reducer's own, as in the unlabeled bucket-oriented reducer.
    const Ownership ownership =
        Ownership::ForBuckets(own, local.local_to_global, hasher);

    // Sink: re-check ownership, translate to global ids, check labels.
    class LabeledSink : public InstanceSink {
     public:
      LabeledSink(const std::vector<NodeId>& local_to_global,
                  const LabeledGraph& graph, const LabeledCq** current,
                  const Ownership& ownership, uint64_t key,
                  ReduceContext* context)
          : local_to_global_(local_to_global),
            graph_(graph),
            current_(current),
            ownership_(ownership),
            key_(key),
            context_(context) {}

      void Emit(std::span<const NodeId> assignment) override {
        ownership_.RequireOwned(assignment, "labeled bucket-oriented", key_);
        scratch_.resize(assignment.size());
        for (size_t i = 0; i < assignment.size(); ++i) {
          scratch_[i] = local_to_global_[assignment[i]];
        }
        const LabeledCq& lcq = **current_;
        for (size_t s = 0; s < lcq.cq.subgoals().size(); ++s) {
          const auto& [a, b] = lcq.cq.subgoals()[s];
          if (!graph_.HasLabeledEdge(scratch_[a], scratch_[b],
                                     lcq.labels[s])) {
            return;
          }
        }
        context_->EmitInstance(scratch_);
      }

     private:
      const std::vector<NodeId>& local_to_global_;
      const LabeledGraph& graph_;
      const LabeledCq** current_;
      const Ownership& ownership_;
      uint64_t key_;
      ReduceContext* context_;
      std::vector<NodeId> scratch_;
    };

    const LabeledCq* current = nullptr;
    LabeledSink labeled_sink(local.local_to_global, graph, &current,
                             ownership, key, context);
    CostCounter join;
    for (const LabeledCq& lcq : cqs) {
      current = &lcq;
      evaluator.Evaluate(lcq.cq, &labeled_sink, &join, &ownership);
    }
    AddJoinCost(join, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<LabeledEdge, LabeledEdge> round{"labeled-bucket", map_fn,
                                                  reduce_fn, key_space, {}};
  const MapReduceMetrics metrics =
      driver.RunRound(round, graph.labeled_edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
