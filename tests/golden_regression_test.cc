// Golden-value regression tests pinning the instance counts and
// communication-cost figures of the paper's Fig. 1 and Fig. 2 scenarios on
// the exact data graphs the benchmarks use (bench_fig1_triangle_comm.cc:
// ErdosRenyi(2000, 20000, 42); bench_fig2_triangle_table.cc:
// ErdosRenyi(3000, 36000, 7)). Every generator, hash function, and
// algorithm in the pipeline is deterministic, so these quantities are exact
// constants; a future optimization PR that changes any of them has changed
// semantics, not just speed.

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "core/triangle_algorithms.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "serial/triangles.h"

namespace smr {
namespace {

// ---- Fig. 1 scenario: ErdosRenyi(2000, 20000, 42). ----

TEST(GoldenFig1, GraphAndTriangleCount) {
  const Graph g = ErdosRenyi(2000, 20000, 42);
  EXPECT_EQ(g.num_nodes(), 2000u);
  EXPECT_EQ(g.num_edges(), 20000u);
  EXPECT_EQ(CountTriangles(g), 1388u);
}

TEST(GoldenFig1, TriangleAlgorithmCommunication) {
  const Graph g = ErdosRenyi(2000, 20000, 42);

  const MapReduceMetrics partition = PartitionTriangles(g, 15, 1, nullptr);
  EXPECT_EQ(partition.key_value_pairs, 362024u);
  EXPECT_EQ(partition.distinct_keys, 455u);  // C(15,3)
  EXPECT_EQ(partition.outputs, 1388u);

  const MapReduceMetrics multiway = MultiwayJoinTriangles(g, 8, 1, nullptr);
  EXPECT_EQ(multiway.key_value_pairs, 440000u);  // (3b-2)m = 22m
  EXPECT_EQ(multiway.distinct_keys, 512u);       // b^3
  EXPECT_EQ(multiway.outputs, 1388u);

  const MapReduceMetrics ordered = OrderedBucketTriangles(g, 15, 1, nullptr);
  EXPECT_EQ(ordered.key_value_pairs, 300000u);  // exactly b per edge
  EXPECT_EQ(ordered.distinct_keys, 680u);       // C(b+2,3)
  EXPECT_EQ(ordered.outputs, 1388u);
}

TEST(GoldenFig1, TwoPathBucketOriented) {
  const Graph g = ErdosRenyi(2000, 20000, 42);
  const SampleGraph path = SampleGraph::Path(3);
  const StrategyRegistry& registry = StrategyRegistry::Global();
  EXPECT_EQ(registry
                .Run(EnumerationQuery::Undirected(path, g).WithStrategy(
                    "serial"))
                .instances,
            399024u);

  const MapReduceMetrics metrics =
      registry
          .Run(EnumerationQuery::Undirected(path, g)
                   .WithStrategy("bucket:4")
                   .WithSeed(1))
          .metrics;
  EXPECT_EQ(metrics.outputs, 399024u);
  EXPECT_EQ(metrics.key_value_pairs, 80000u);  // C(b+p-3, p-2) = b = 4 per edge
  EXPECT_EQ(metrics.distinct_keys, 20u);       // C(b+p-1, p) = C(6,3)
}

// ---- Fig. 2 scenario: ErdosRenyi(3000, 36000, 7), the paper's table of
// comparable reducer counts (Partition b=12, multiway b=6, ordered b=10).

TEST(GoldenFig2, TriangleTable) {
  const Graph g = ErdosRenyi(3000, 36000, 7);
  EXPECT_EQ(g.num_edges(), 36000u);
  EXPECT_EQ(CountTriangles(g), 2293u);

  const MapReduceMetrics partition = PartitionTriangles(g, 12, 3, nullptr);
  EXPECT_EQ(partition.key_space, 220u);  // C(12,3)
  EXPECT_EQ(partition.key_value_pairs, 497790u);
  EXPECT_EQ(partition.outputs, 2293u);
  // Paper's closed form: 13.75m; measured replication is within 1%.
  EXPECT_NEAR(partition.ReplicationRate(), 13.8275, 1e-4);

  const MapReduceMetrics multiway = MultiwayJoinTriangles(g, 6, 3, nullptr);
  EXPECT_EQ(multiway.key_space, 216u);  // 6^3
  EXPECT_EQ(multiway.key_value_pairs, 576000u);
  EXPECT_EQ(multiway.outputs, 2293u);
  EXPECT_DOUBLE_EQ(multiway.ReplicationRate(), 16.0);  // paper: 16m

  const MapReduceMetrics ordered = OrderedBucketTriangles(g, 10, 3, nullptr);
  EXPECT_EQ(ordered.key_space, 220u);  // C(12,3)
  EXPECT_EQ(ordered.key_value_pairs, 360000u);
  EXPECT_EQ(ordered.outputs, 2293u);
  EXPECT_DOUBLE_EQ(ordered.ReplicationRate(), 10.0);  // paper: 10m = bm
}

TEST(GoldenFig2, ParallelRunsPinnedToSameGoldens) {
  // The golden figures hold under the parallel engine too — determinism is
  // part of the pinned contract.
  const Graph g = ErdosRenyi(3000, 36000, 7);
  const MapReduceMetrics ordered = OrderedBucketTriangles(
      g, 10, 3, nullptr, ExecutionPolicy::WithThreads(4));
  EXPECT_EQ(ordered.key_value_pairs, 360000u);
  EXPECT_EQ(ordered.distinct_keys, 220u);
  EXPECT_EQ(ordered.outputs, 2293u);
}

TEST(GoldenBudgetInvariance, Fig1AndFig2PinsHoldUnderTinySpillBudget) {
  // The goldens are budget-invariant: a shuffle budget small enough to
  // force spilling on every round must reproduce the exact Fig. 1 / Fig. 2
  // quantities. A spill-path bug that perturbs counts, grouping, or
  // emission order fails these pins, not just the synthetic fuzz rounds.
  const ExecutionPolicy tiny_budget =
      ExecutionPolicy::WithThreads(2).WithBudget(64 * 1024);

  const Graph fig1 = ErdosRenyi(2000, 20000, 42);
  const MapReduceMetrics partition =
      PartitionTriangles(fig1, 15, 1, nullptr, tiny_budget);
  EXPECT_EQ(partition.key_value_pairs, 362024u);
  EXPECT_EQ(partition.distinct_keys, 455u);
  EXPECT_EQ(partition.outputs, 1388u);
  EXPECT_GT(partition.shuffle.pages_spilled, 0u)
      << "the 64 KiB budget did not force a spill — the invariance proof "
         "needs the spill path to actually run";

  const Graph fig2 = ErdosRenyi(3000, 36000, 7);
  const MapReduceMetrics ordered =
      OrderedBucketTriangles(fig2, 10, 3, nullptr, tiny_budget);
  EXPECT_EQ(ordered.key_value_pairs, 360000u);
  EXPECT_EQ(ordered.distinct_keys, 220u);
  EXPECT_EQ(ordered.outputs, 2293u);
  EXPECT_GT(ordered.shuffle.pages_spilled, 0u);

  const MapReduceMetrics multiway =
      MultiwayJoinTriangles(fig2, 6, 3, nullptr, tiny_budget);
  EXPECT_EQ(multiway.key_value_pairs, 576000u);
  EXPECT_EQ(multiway.outputs, 2293u);
  EXPECT_GT(multiway.shuffle.pages_spilled, 0u);
}

}  // namespace
}  // namespace smr
