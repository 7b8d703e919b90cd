#include "core/triangle_algorithms.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/intersect.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "serial/triangles.h"
#include "util/combinatorics.h"
#include "util/hashing.h"

namespace smr {

namespace {

uint64_t PackTriple(int a, int b, int c, int base) {
  return (static_cast<uint64_t>(a) * base + b) * base + c;
}

// OrderedBucketTriangles and PartitionTriangles key their reducers by the
// combinatorial rank of the (sorted) bucket triple instead of PackTriple:
// their declared key spaces are C(b+2, 3) and C(b, 3), and base-b packing
// is sparse in those ranges — under the engine's partitioned shuffle almost
// every packed key would land beyond the declared space and collapse into
// the last partition, serializing the reduce. Ranks are dense and order
// reducers identically (lexicographically in the triple), so metrics and
// emission order are unchanged. MultiwayJoinTriangles keeps PackTriple: its
// key space *is* b^3 and the packing is already a dense bijection.

uint64_t RankTriple(const std::array<int, 3>& triple, int base) {
  return RankNondecreasing3(triple[0], triple[1], triple[2], base);
}

std::array<int, 3> UnrankTriple(uint64_t key, int base) {
  const std::vector<int> seq = UnrankNondecreasing(key, base, 3);
  return {seq[0], seq[1], seq[2]};
}

uint64_t RankStrictTriple(const std::array<int, 3>& triple, int base) {
  return RankSubset3(triple[0], triple[1], triple[2], base);
}

std::array<int, 3> UnrankStrictTriple(uint64_t key, int base) {
  const std::vector<int> seq = UnrankSubset(key, base, 3);
  return {seq[0], seq[1], seq[2]};
}

/// Value shipped by the multiway-join mapper: the edge plus the roles
/// (XY=1, YZ=2, XZ=4) it plays at the receiving reducer. Overlapping roles
/// at the same reducer are merged into one key-value pair (footnote 1).
struct RoleEdge {
  NodeId u;
  NodeId v;
  uint8_t roles;
};

}  // namespace

MapReduceMetrics MultiwayJoinTriangles(const Graph& graph, int buckets,
                                       uint64_t seed, InstanceSink* sink,
                                       const ExecutionPolicy& policy,
                                       JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const uint64_t key_space = static_cast<uint64_t>(buckets) * buckets * buckets;

  auto map_fn = [&](const Edge& edge, Emitter<RoleEdge>* out) {
    const auto [u, v] = edge;  // u < v by Graph's canonical storage
    const int hu = hasher.Bucket(u);
    const int hv = hasher.Bucket(v);
    std::unordered_map<uint64_t, uint8_t> roles_by_key;
    for (int z = 0; z < buckets; ++z) {
      roles_by_key[PackTriple(hu, hv, z, buckets)] |= 1;  // as E(X,Y)
    }
    for (int x = 0; x < buckets; ++x) {
      roles_by_key[PackTriple(x, hu, hv, buckets)] |= 2;  // as E(Y,Z)
    }
    for (int y = 0; y < buckets; ++y) {
      roles_by_key[PackTriple(hu, y, hv, buckets)] |= 4;  // as E(X,Z)
    }
    for (const auto& [key, roles] : roles_by_key) {
      out->Emit(key, RoleEdge{u, v, roles});
    }
  };

  auto reduce_fn = [&](uint64_t /*key*/, std::span<const RoleEdge> values,
                       ReduceContext* context) {
    // R_XY join R_YZ join R_XZ with shared middle / outer variables.
    std::unordered_map<uint64_t, std::vector<NodeId>> yz_by_first;
    std::unordered_set<uint64_t, IdHash> xz;
    for (const RoleEdge& value : values) {
      ++context->cost->edges_scanned;
      if (value.roles & 2) yz_by_first[value.u].push_back(value.v);
      if (value.roles & 4) xz.insert(PackPair(value.u, value.v));
    }
    for (const RoleEdge& value : values) {
      if (!(value.roles & 1)) continue;
      const auto it = yz_by_first.find(value.v);
      if (it == yz_by_first.end()) continue;
      for (NodeId w : it->second) {
        ++context->cost->candidates;
        ++context->cost->index_probes;
        if (xz.count(PackPair(value.u, w)) > 0) {
          const std::array<NodeId, 3> assignment = {value.u, value.v, w};
          context->EmitInstance(assignment);
        }
      }
    }
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, RoleEdge> round{"multiway-join", map_fn, reduce_fn,
                                        key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics OrderedBucketTriangles(const Graph& graph, int buckets,
                                        uint64_t seed, InstanceSink* sink,
                                        const ExecutionPolicy& policy,
                                        JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const NodeId n = graph.num_nodes();
  const NodeOrder order = NodeOrder::ByBucket(n, hasher);
  const uint64_t key_space = Binomial(buckets + 2, 3);

  // Ranks are bucket-major: bucket t is the rank window
  // [bucket_begin[t], bucket_begin[t + 1]). Built once per job, so the
  // reducers never relabel or re-sort nodes.
  std::vector<uint32_t> bucket_begin(buckets + 1, 0);
  std::vector<NodeId> node_of_rank(n);
  for (NodeId u = 0; u < n; ++u) {
    ++bucket_begin[hasher.Bucket(u) + 1];
    node_of_rank[order.Rank(u)] = u;
  }
  std::partial_sum(bucket_begin.begin(), bucket_begin.end(),
                   bucket_begin.begin());
  // The part of an ascending rank list that falls in bucket t.
  auto window = [&](std::span<const NodeId> ranks, int t) {
    const auto lo =
        std::lower_bound(ranks.begin(), ranks.end(), bucket_begin[t]);
    const auto hi = std::lower_bound(lo, ranks.end(), bucket_begin[t + 1]);
    return std::span<const NodeId>(lo, hi);
  };

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const Edge oriented = order.Orient(edge);
    const int i = hasher.Bucket(oriented.first);
    const int j = hasher.Bucket(oriented.second);  // i <= j by the order
    for (int w = 0; w < buckets; ++w) {
      std::array<int, 3> triple = {i, j, w};
      std::sort(triple.begin(), triple.end());
      out->Emit(RankTriple(triple, buckets), oriented);
    }
  };

  // Reducer (t0 <= t1 <= t2) owns exactly the triangles u < v < w with u in
  // bucket t0, v in t1 and w in t2, and enumerates only those: for each u
  // in t0, each successor v in t1 and the successors w in t2 that u and v
  // share. Every edge it receives is a side of such a triangle — the map
  // sends a (t, t') edge only to triples holding t and t', where it is the
  // t0 -> t1, t0 -> t2 or t1 -> t2 pair — so nothing is filtered.
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const auto [t0, t1, t2] = UnrankTriple(key, buckets);
    CostCounter* cost = context->cost;
    cost->edges_scanned += values.size();

    std::vector<uint64_t> sides;
    sides.reserve(values.size());
    for (const auto& [u, v] : values) {
      sides.push_back(PackPair(order.Rank(u), order.Rank(v)));
    }
    std::sort(sides.begin(), sides.end());

    // CSR in rank space: row r lists the successor ranks of source rank
    // sources[r], ascending.
    std::vector<uint32_t> sources;
    std::vector<size_t> offsets;
    std::vector<NodeId> successors;
    successors.reserve(sides.size());
    size_t max_row = 0;
    for (const uint64_t side : sides) {
      const auto source = static_cast<uint32_t>(side >> 32);
      if (sources.empty() || sources.back() != source) {
        sources.push_back(source);
        offsets.push_back(successors.size());
      }
      successors.push_back(static_cast<NodeId>(side));
      max_row = std::max(max_row, successors.size() - offsets.back());
    }
    offsets.push_back(successors.size());
    auto row = [&](size_t r) {
      return std::span<const NodeId>(successors.data() + offsets[r],
                                     successors.data() + offsets[r + 1]);
    };
    std::vector<NodeId> matches(max_row + kIntersectSlack);

    // Sources lie in bucket t0 or later, so the t0 rows are a prefix; within
    // one bucket rank order is id order, so u ascends by id as in the
    // serial kernel and the emitted stream keeps its order.
    for (size_t r = 0; r < sources.size() && sources[r] < bucket_begin[t0 + 1];
         ++r) {
      const NodeId u = node_of_rank[sources[r]];
      const auto mids = window(row(r), t1);
      const auto lasts = window(row(r), t2);
      // EnumerateTriangles' units: the successors read, and one candidate
      // and one probe per owned wedge (u, v, w) with v before w.
      const uint64_t wedges =
          t1 == t2 ? Binomial(static_cast<int64_t>(mids.size()), 2)
                   : static_cast<uint64_t>(mids.size()) * lasts.size();
      cost->edges_scanned += mids.size() + (t1 == t2 ? 0 : lasts.size());
      cost->candidates += wedges;
      cost->index_probes += wedges;
      for (size_t i = 0; i < mids.size(); ++i) {
        // v's row holds only ranks after v, so the t1 = t2 case needs no
        // care; trimming u's list to ranks after v just shortens it.
        const auto closers = t1 == t2 ? mids.subspan(i + 1) : lasts;
        if (closers.empty()) continue;
        const auto it =
            std::lower_bound(sources.begin() + r + 1, sources.end(), mids[i]);
        if (it == sources.end() || *it != mids[i]) continue;
        const size_t count = IntersectInto(
            closers, window(row(it - sources.begin()), t2), matches.data());
        const NodeId v = node_of_rank[mids[i]];
        for (size_t k = 0; k < count; ++k) {
          const std::array<NodeId, 3> assignment = {u, v,
                                                    node_of_rank[matches[k]]};
          context->EmitInstance(assignment);
        }
      }
    }
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"ordered-buckets", map_fn, reduce_fn,
                                    key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics PartitionTriangles(const Graph& graph, int num_groups,
                                    uint64_t seed, InstanceSink* sink,
                                    const ExecutionPolicy& policy,
                                    JobMetrics* job) {
  if (num_groups < 3) throw std::invalid_argument("Partition needs b >= 3");
  const int b = num_groups;
  const BucketHasher hasher(b, seed);
  const uint64_t key_space = Binomial(b, 3);

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    int i = hasher.Bucket(edge.first);
    int j = hasher.Bucket(edge.second);
    if (i > j) std::swap(i, j);
    if (i == j) {
      // Both endpoints in group i: send to every triple containing i.
      for (int x = 0; x < b; ++x) {
        if (x == i) continue;
        for (int y = x + 1; y < b; ++y) {
          if (y == i) continue;
          std::array<int, 3> triple = {i, x, y};
          std::sort(triple.begin(), triple.end());
          out->Emit(RankStrictTriple(triple, b), edge);
        }
      }
    } else {
      for (int w = 0; w < b; ++w) {
        if (w == i || w == j) continue;
        std::array<int, 3> triple = {i, j, w};
        std::sort(triple.begin(), triple.end());
        out->Emit(RankStrictTriple(triple, b), edge);
      }
    }
  };

  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::array<int, 3> own = UnrankStrictTriple(key, b);
    const Subgraph local = BuildSubgraph(values);
    context->cost->edges_scanned += values.size();
    const NodeOrder local_order = NodeOrder::Identity(local.graph.num_nodes());
    CollectingSink local_sink;
    EnumerateTriangles(local.graph, local_order, &local_sink, context->cost);
    for (const auto& assignment : local_sink.assignments()) {
      const std::array<NodeId, 3> global = {
          local.local_to_global[assignment[0]],
          local.local_to_global[assignment[1]],
          local.local_to_global[assignment[2]]};
      // De-duplication: the triangle's distinct groups H are contained in
      // several reducer triples; only the canonical one (H padded with the
      // smallest unused group ids) emits it.
      std::array<int, 3> groups = {hasher.Bucket(global[0]),
                                   hasher.Bucket(global[1]),
                                   hasher.Bucket(global[2])};
      std::sort(groups.begin(), groups.end());
      std::array<int, 3> canonical{};
      int size = 0;
      for (int g : groups) {
        if (size == 0 || canonical[size - 1] != g) canonical[size++] = g;
      }
      for (int candidate = 0; size < 3 && candidate < b; ++candidate) {
        bool present = false;
        for (int k = 0; k < size; ++k) present |= (canonical[k] == candidate);
        if (present) continue;
        int k = size++;  // insert in sorted position
        for (; k > 0 && canonical[k - 1] > candidate; --k) {
          canonical[k] = canonical[k - 1];
        }
        canonical[k] = candidate;
      }
      if (canonical != own) continue;
      context->EmitInstance(global);
    }
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"partition", map_fn, reduce_fn, key_space,
                                    {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
