#include <vector>

#include <gtest/gtest.h>

#include "core/triangle_algorithms.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "serial/triangles.h"
#include "shares/replication_formulas.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

/// All three algorithms against the serial ground truth, across graphs,
/// bucket counts, and hash seeds.
class TriangleMrAlgorithms
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(TriangleMrAlgorithms, AllThreeFindEachTriangleOnce) {
  const auto [buckets, seed] = GetParam();
  const Graph g = ErdosRenyi(60, 220, seed);
  const SampleGraph triangle = SampleGraph::Triangle();
  const auto expected = GroundTruthKeys(triangle, g);

  CollectingSink partition_sink;
  PartitionTriangles(g, std::max(buckets, 3), seed, &partition_sink);
  EXPECT_EQ(KeysOf(partition_sink, triangle), expected) << "partition";

  CollectingSink multiway_sink;
  MultiwayJoinTriangles(g, buckets, seed, &multiway_sink);
  EXPECT_EQ(KeysOf(multiway_sink, triangle), expected) << "multiway";

  CollectingSink ordered_sink;
  OrderedBucketTriangles(g, buckets, seed, &ordered_sink);
  EXPECT_EQ(KeysOf(ordered_sink, triangle), expected) << "ordered";
}

INSTANTIATE_TEST_SUITE_P(BucketsBySeed, TriangleMrAlgorithms,
                         ::testing::Combine(::testing::Values(3, 4, 6, 10),
                                            ::testing::Values(1ull, 2ull,
                                                              3ull)));

TEST(MultiwayJoinTriangles, CommunicationIsExactly3bMinus2) {
  // Section 2.2: each edge goes to exactly 3b-2 distinct reducers.
  const Graph g = ErdosRenyi(50, 200, 7);
  for (int b : {2, 4, 8}) {
    const auto metrics = MultiwayJoinTriangles(g, b, 1, nullptr);
    EXPECT_EQ(metrics.key_value_pairs,
              g.num_edges() * (3 * static_cast<uint64_t>(b) - 2))
        << "b=" << b;
    EXPECT_EQ(metrics.key_space, static_cast<uint64_t>(b) * b * b);
  }
}

TEST(OrderedBucketTriangles, CommunicationIsExactlyB) {
  // Section 2.3: each edge is replicated exactly b times.
  const Graph g = ErdosRenyi(50, 200, 7);
  for (int b : {2, 4, 8, 12}) {
    const auto metrics = OrderedBucketTriangles(g, b, 1, nullptr);
    EXPECT_EQ(metrics.key_value_pairs, g.num_edges() * static_cast<uint64_t>(b))
        << "b=" << b;
    EXPECT_EQ(metrics.key_space, Binomial(b + 2, 3));
    EXPECT_LE(metrics.distinct_keys, metrics.key_space);
  }
}

TEST(PartitionTriangles, CommunicationMatchesExpectedFormula) {
  // Section 2.1: (1/b) of edges to C(b-1,2) reducers, the rest to b-2.
  const Graph g = ErdosRenyi(400, 3000, 3);
  for (int b : {4, 8, 12}) {
    const auto metrics = PartitionTriangles(g, b, 5, nullptr);
    const double expected_per_edge =
        (1.0 / b) * Binomial(b - 1, 2) + (1.0 - 1.0 / b) * (b - 2);
    EXPECT_NEAR(metrics.ReplicationRate(), expected_per_edge,
                0.12 * expected_per_edge)
        << "b=" << b;
    EXPECT_EQ(metrics.key_space, Binomial(b, 3));
  }
}

TEST(PartitionTriangles, RejectsTooFewGroups) {
  const Graph g = ErdosRenyi(10, 20, 1);
  EXPECT_THROW(PartitionTriangles(g, 2, 1, nullptr), std::invalid_argument);
}

TEST(TriangleAlgorithms, OutputsCountEvenWithoutSink) {
  const Graph g = ErdosRenyi(40, 160, 9);
  const uint64_t expected = CountTriangles(g);
  EXPECT_EQ(MultiwayJoinTriangles(g, 4, 2, nullptr).outputs, expected);
  EXPECT_EQ(OrderedBucketTriangles(g, 4, 2, nullptr).outputs, expected);
  EXPECT_EQ(PartitionTriangles(g, 4, 2, nullptr).outputs, expected);
}

TEST(TriangleAlgorithms, Fig2CommunicationComparison) {
  // Fig. 2: at comparable reducer counts (Partition b=12 -> 220 reducers,
  // multiway b=6 -> 216, ordered b=10 -> 220), the measured per-edge
  // replication is 13.75m vs 16m vs 10m.
  const Graph g = ErdosRenyi(500, 4000, 11);
  const auto partition = PartitionTriangles(g, 12, 3, nullptr);
  const auto multiway = MultiwayJoinTriangles(g, 6, 3, nullptr);
  const auto ordered = OrderedBucketTriangles(g, 10, 3, nullptr);
  EXPECT_NEAR(partition.ReplicationRate(), 13.75, 13.75 * 0.1);
  EXPECT_DOUBLE_EQ(multiway.ReplicationRate(), 16.0);
  EXPECT_DOUBLE_EQ(ordered.ReplicationRate(), 10.0);
  // The ordered-bucket algorithm wins, Partition second, multiway last.
  EXPECT_LT(ordered.ReplicationRate(), partition.ReplicationRate());
  EXPECT_LT(partition.ReplicationRate(), multiway.ReplicationRate());
}

TEST(TriangleAlgorithms, OrderedBucketUsesOnlyNondecreasingTriples) {
  // Theorem 4.2 consequence: reducers receiving data never exceed
  // C(b+2, 3) even when b^3 would be much larger.
  const Graph g = ErdosRenyi(300, 2500, 13);
  const int b = 8;
  const auto metrics = OrderedBucketTriangles(g, b, 1, nullptr);
  EXPECT_EQ(metrics.key_space, Binomial(b + 2, 3));
  // Dense enough that every useful reducer receives at least one edge.
  EXPECT_EQ(metrics.distinct_keys, Binomial(b + 2, 3));
}

TEST(TriangleAlgorithms, ComputationCostIsConvertible) {
  // Theorem 6.1 instantiated: total reducer work stays within a small
  // constant of the degree-ordered serial cost (the reducers explore
  // exactly the same-order kernel's wedges, checked by
  // OrderedBucketTriangles.ReducersExploreOnlyOwnedWedges).
  const Graph g = ErdosRenyi(2000, 20000, 42);
  const auto metrics = OrderedBucketTriangles(g, 12, 3, nullptr);
  CostCounter degree_order;
  EnumerateTriangles(g, NodeOrder::ByDegree(g), nullptr, &degree_order);
  EXPECT_LE(static_cast<double>(metrics.reduce_cost.Total()),
            3.0 * static_cast<double>(degree_order.Total()));
}

/// Graphs the ordered-bucket stream pins and pruning checks run on: two
/// mid-sized graphs, one small enough that b = 40 leaves buckets empty, and
/// an edgeless one.
std::vector<Graph> OrderedBucketGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(ErdosRenyi(2000, 20000, 42));
  graphs.push_back(PreferentialAttachment(1200, 6, 17));
  graphs.push_back(ErdosRenyi(30, 100, 5));
  graphs.push_back(Graph(50, {}));
  return graphs;
}

constexpr int kOrderedBuckets[] = {1, 2, 5, 12, 40};

struct StreamPin {
  size_t graph;
  int buckets;
  size_t instances;
  uint64_t fnv1a;
};

// Taken before the reducer enumerated only its owned triangles in rank
// space; the emitted stream, order included, must not change.
constexpr StreamPin kOrderedBucketPins[] = {
    {0, 1, 1388, 16922295797178614840ull},
    {0, 2, 1388, 5000814253382141636ull},
    {0, 5, 1388, 4944024025591662104ull},
    {0, 12, 1388, 14301758074364712244ull},
    {0, 40, 1388, 986840627924906704ull},
    {1, 1, 1836, 5434919201369587194ull},
    {1, 2, 1836, 14050897963564588026ull},
    {1, 5, 1836, 17870398964807534046ull},
    {1, 12, 1836, 14038629846493579334ull},
    {1, 40, 1836, 4798893655408218870ull},
    {2, 1, 61, 28624127424263453ull},
    {2, 2, 61, 8470587431845828157ull},
    {2, 5, 61, 2148613945145716349ull},
    {2, 12, 61, 11796136817853256989ull},
    {2, 40, 61, 8181680648339636061ull},
    {3, 1, 0, 14695981039346656037ull},
    {3, 2, 0, 14695981039346656037ull},
    {3, 5, 0, 14695981039346656037ull},
    {3, 12, 0, 14695981039346656037ull},
    {3, 40, 0, 14695981039346656037ull},
};

TEST(OrderedBucketTriangles, InstanceStreamIsPinned) {
  const std::vector<Graph> graphs = OrderedBucketGraphs();
  const ExecutionPolicy policies[] = {
      ExecutionPolicy::Serial(),
      ExecutionPolicy::WithThreads(4).WithBudget(64 * 1024)};
  for (const StreamPin& pin : kOrderedBucketPins) {
    for (const ExecutionPolicy& policy : policies) {
      CollectingSink sink;
      OrderedBucketTriangles(graphs[pin.graph], pin.buckets, 3, &sink,
                             policy);
      EXPECT_EQ(sink.assignments().size(), pin.instances)
          << "graph " << pin.graph << " b=" << pin.buckets;
      EXPECT_EQ(Fnv1a(sink.assignments()), pin.fnv1a)
          << "graph " << pin.graph << " b=" << pin.buckets;
    }
  }
}

TEST(OrderedBucketTriangles, ReducersExploreOnlyOwnedWedges) {
  // Every wedge (u, v, w), u < v < w in the bucket order, is owned by the
  // one reducer keyed by its bucket triple, so the reducers' summed
  // candidates and probes equal the serial kernel's under the same order.
  for (const Graph& g : OrderedBucketGraphs()) {
    for (const int b : kOrderedBuckets) {
      const auto metrics = OrderedBucketTriangles(g, b, 3, nullptr);
      CostCounter serial;
      EnumerateTriangles(
          g, NodeOrder::ByBucket(g.num_nodes(), BucketHasher(b, 3)), nullptr,
          &serial);
      EXPECT_EQ(metrics.reduce_cost.candidates, serial.candidates)
          << "n=" << g.num_nodes() << " b=" << b;
      EXPECT_EQ(metrics.reduce_cost.index_probes, serial.candidates)
          << "n=" << g.num_nodes() << " b=" << b;
      EXPECT_EQ(metrics.reduce_cost.outputs, serial.outputs)
          << "n=" << g.num_nodes() << " b=" << b;
      EXPECT_EQ(metrics.outputs, serial.outputs);
    }
  }
}

TEST(TriangleAlgorithms, SingleBucketDegeneratesToSerial) {
  const Graph g = ErdosRenyi(30, 100, 19);
  const auto metrics = MultiwayJoinTriangles(g, 1, 1, nullptr);
  EXPECT_EQ(metrics.key_value_pairs, g.num_edges());
  EXPECT_EQ(metrics.outputs, CountTriangles(g));
}

TEST(TriangleAlgorithms, TriangleFreeGraphYieldsNothing) {
  const Graph g = CompleteBipartite(6, 6);
  EXPECT_EQ(MultiwayJoinTriangles(g, 4, 1, nullptr).outputs, 0u);
  EXPECT_EQ(OrderedBucketTriangles(g, 4, 1, nullptr).outputs, 0u);
  EXPECT_EQ(PartitionTriangles(g, 4, 1, nullptr).outputs, 0u);
}

}  // namespace
}  // namespace smr
