#include "directed/directed_enumeration.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "mapreduce/job.h"
#include "util/combinatorics.h"

namespace smr {

namespace {

/// Backtracking enumeration over a directed graph with canonical-embedding
/// deduplication; shared by the serial path and the reducers (a reducer
/// passes a sink that keeps only its bucket multiset's instances).
uint64_t MatchDirected(const DirectedSampleGraph& pattern,
                       const DirectedGraph& graph, InstanceSink* sink,
                       CostCounter* cost) {
  const int p = pattern.num_vars();
  const auto& automorphisms = pattern.Automorphisms();

  // Assignment order: every later variable adjacent (either direction) to
  // an earlier one when possible.
  std::vector<int> var_order;
  {
    std::vector<bool> placed(p, false);
    for (int step = 0; step < p; ++step) {
      int best = -1;
      int best_bound = -1;
      for (int v = 0; v < p; ++v) {
        if (placed[v]) continue;
        int bound_nbrs = 0;
        for (int w : pattern.Neighbors(v)) {
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

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> bound(p, false);
  uint64_t found = 0;

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
    // Anchor through an out- or in-neighbor already bound.
    int anchor = -1;
    bool anchor_is_source = false;  // anchor -> var
    for (int w : pattern.Predecessors(var)) {
      if (bound[w]) {
        anchor = w;
        anchor_is_source = true;
        break;
      }
    }
    if (anchor < 0) {
      for (int w : pattern.Successors(var)) {
        if (bound[w]) {
          anchor = w;
          anchor_is_source = false;
          break;
        }
      }
    }
    auto try_node = [&](NodeId node) {
      if (cost != nullptr) ++cost->candidates;
      for (int x = 0; x < p; ++x) {
        if (bound[x] && assignment[x] == node) return;
      }
      for (int w : pattern.Predecessors(var)) {
        if (!bound[w]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasArc(assignment[w], node)) return;
      }
      for (int w : pattern.Successors(var)) {
        if (!bound[w]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasArc(node, assignment[w])) return;
      }
      assignment[var] = node;
      bound[var] = true;
      match(depth + 1);
      bound[var] = false;
    };
    if (anchor >= 0) {
      const auto candidates = anchor_is_source
                                  ? graph.Successors(assignment[anchor])
                                  : graph.Predecessors(assignment[anchor]);
      for (NodeId node : candidates) try_node(node);
    } else {
      for (NodeId node = 0; node < graph.num_nodes(); ++node) try_node(node);
    }
  };
  match(0);
  return found;
}

}  // namespace

uint64_t EnumerateDirectedInstances(const DirectedSampleGraph& pattern,
                                    const DirectedGraph& graph,
                                    InstanceSink* sink, CostCounter* cost) {
  return MatchDirected(pattern, graph, sink, cost);
}

MapReduceMetrics DirectedBucketOrientedEnumerate(
    const DirectedSampleGraph& pattern, const DirectedGraph& graph,
    int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  // Materialize the lazily computed automorphism cache before the round:
  // the reducers call MatchDirected concurrently, and the cache fill is not
  // synchronized.
  pattern.Automorphisms();
  const int p = pattern.num_vars();
  if (!BinomialFitsUint64(buckets + p - 1, p)) {
    throw std::invalid_argument(
        "directed bucket-oriented reducer key space C(b+p-1, p) exceeds 64 "
        "bits; reduce the bucket count b or the pattern size p");
  }
  const BucketHasher hasher(buckets, seed);
  const uint64_t key_space = Binomial(buckets + p - 1, p);
  // Multiset ranks: dense in C(b+p-1, p) for the partitioned shuffle's
  // key-range split, and immune to the base-b packing's uint64_t wrap.
  const BucketKeys keys(buckets, p);

  auto map_fn = [&](const Arc& arc, Emitter<Arc>* out) {
    const int i = hasher.Bucket(arc.first);
    const int j = hasher.Bucket(arc.second);
    keys.ForEach(std::min(i, j), std::max(i, j),
                 [&](uint64_t key) { out->Emit(key, arc); });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const Arc> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankNondecreasing(key, buckets, p);
    // Relabel the local arcs densely.
    std::vector<NodeId> nodes;
    nodes.reserve(values.size() * 2);
    for (const Arc& a : values) {
      nodes.push_back(a.first);
      nodes.push_back(a.second);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    auto local_id = [&nodes](NodeId global) {
      return static_cast<NodeId>(
          std::lower_bound(nodes.begin(), nodes.end(), global) -
          nodes.begin());
    };
    std::vector<Arc> local_arcs;
    local_arcs.reserve(values.size());
    for (const Arc& a : values) {
      local_arcs.emplace_back(local_id(a.first), local_id(a.second));
      ++context->cost->edges_scanned;
    }
    const DirectedGraph local(static_cast<NodeId>(nodes.size()),
                              std::move(local_arcs));
    // Enumerate locally. The canonical-embedding rule inside MatchDirected
    // must agree across reducers, so translate to global ids before both
    // the canonicality filter and the multiset check... Canonicality over
    // local ids is consistent because local ids are ordered like global
    // ids (nodes sorted ascending).
    class FilterSink : public InstanceSink {
     public:
      FilterSink(const std::vector<NodeId>& nodes, const BucketHasher& hasher,
                 const std::vector<int>& own, ReduceContext* context)
          : nodes_(nodes), hasher_(hasher), own_(own), context_(context) {}
      void Emit(std::span<const NodeId> assignment) override {
        scratch_.assign(assignment.size(), 0);
        for (size_t i = 0; i < assignment.size(); ++i) {
          scratch_[i] = nodes_[assignment[i]];
        }
        std::vector<int> got;
        got.reserve(scratch_.size());
        for (NodeId node : scratch_) got.push_back(hasher_.Bucket(node));
        std::sort(got.begin(), got.end());
        if (got != own_) return;
        context_->EmitInstance(scratch_);
      }

     private:
      const std::vector<NodeId>& nodes_;
      const BucketHasher& hasher_;
      const std::vector<int>& own_;
      ReduceContext* context_;
      std::vector<NodeId> scratch_;
    };
    FilterSink filter(nodes, hasher, own, context);
    MatchDirected(pattern, local, &filter, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Arc, Arc> round{"directed-bucket", map_fn, reduce_fn,
                                  key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.arcs(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
