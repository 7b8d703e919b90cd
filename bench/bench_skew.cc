// The "curse of the last reducer" ([19], the paper's motivation): on
// skewed (power-law) graphs, naive per-node grouping leaves one giant
// reducer, while the paper's edge-replication schemes bound every reducer's
// input. We measure reducer-input skew (max / mean) for:
//  * naive per-node grouping (every edge sent to both endpoints' reducers,
//    the node-iterator baseline — the cursed one: the hub's reducer gets
//    its whole neighborhood),
//  * round 1 of the two-round algorithm of [19], whose degree ordering
//    already tames the hubs,
//  * the ordered-bucket one-round algorithm,
//  * generic bucket-oriented processing for the square,
// on an Erdős–Rényi graph vs a preferential-attachment graph of equal size.

#include <cstdio>

#include "core/strategy.h"
#include "mapreduce/job.h"
#include "core/triangle_algorithms.h"
#include "core/two_round_triangles.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "graph/statistics.h"

namespace smr {
namespace {

double Skew(const MapReduceMetrics& metrics) {
  if (metrics.distinct_keys == 0) return 0;
  const double mean = static_cast<double>(metrics.key_value_pairs) /
                      static_cast<double>(metrics.distinct_keys);
  return static_cast<double>(metrics.max_reducer_input) / mean;
}

/// The cursed baseline: group every edge under both endpoints.
MapReduceMetrics NaiveNodeGrouping(const Graph& g) {
  auto map_fn = [](const Edge& e, Emitter<Edge>* out) {
    out->Emit(e.first, e);
    out->Emit(e.second, e);
  };
  auto reduce_fn = [](uint64_t, std::span<const Edge> values,
                      ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };
  JobDriver driver;
  return driver.RunRound(RoundSpec<Edge, Edge>{"naive-per-node", map_fn,
                                               reduce_fn, g.num_nodes(), {}},
                         g.edges(), nullptr);
}

void Report(const char* name, const Graph& g) {
  const GraphStatistics stats = ComputeStatistics(g);
  std::printf("%s: %s\n", name, stats.ToString().c_str());
  const MapReduceMetrics naive = NaiveNodeGrouping(g);
  const TwoRoundMetrics two_round =
      TwoRoundTriangles(g, NodeOrder::ByDegree(g), nullptr);
  const MapReduceMetrics ordered = OrderedBucketTriangles(g, 8, 3, nullptr);
  const SampleGraph square = SampleGraph::Square();
  const MapReduceMetrics bucket =
      StrategyRegistry::Global()
          .Run(EnumerationQuery::Undirected(square, g)
                   .WithStrategy("bucket:4")
                   .WithSeed(3))
          .metrics;
  std::printf(
      "  naive per-node grouping:        max=%llu skew=%6.1f\n"
      "  degree-ordered r1 ([19]):       max=%llu skew=%6.1f\n"
      "  ordered buckets (b=8):          max=%llu skew=%6.1f\n"
      "  bucket-oriented square (b=4):   max=%llu skew=%6.1f\n",
      static_cast<unsigned long long>(naive.max_reducer_input), Skew(naive),
      static_cast<unsigned long long>(two_round.round1.max_reducer_input),
      Skew(two_round.round1),
      static_cast<unsigned long long>(ordered.max_reducer_input),
      Skew(ordered),
      static_cast<unsigned long long>(bucket.max_reducer_input),
      Skew(bucket));
}

void Run() {
  std::printf(
      "reducer-input skew: the curse of the last reducer ([19]) and how\n"
      "edge replication bounds it\n\n");
  const NodeId n = 3000;
  const size_t m = 12000;
  Report("uniform (Erdos-Renyi)", ErdosRenyi(n, m, 5));
  std::printf("\n");
  Report("skewed (preferential attachment)",
         PreferentialAttachment(n, static_cast<int>(m / n), 5));
  std::printf(
      "\nexpected shape: naive per-node grouping skew explodes on the\n"
      "power-law graph (the hub reducer receives its whole neighborhood),\n"
      "while the degree ordering of [19] and the paper's hashed-bucket\n"
      "schemes stay within a small factor of the mean on both graphs.\n");
}

}  // namespace
}  // namespace smr

int main() {
  smr::Run();
  return 0;
}
