// Additional property and edge-case coverage across modules: degenerate
// strategies (one bucket / unit shares) reduce to serial enumeration,
// Theorem 4.1 on the hypercube, order-structure invariants, engine byte
// accounting, decomposition of larger cycles and cliques, and the
// interaction of cycle CQs with the Section-3 CQs for C4.

#include <cmath>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "cycles/cycle_cqs.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "cq/cq_evaluator.h"
#include "serial/matcher.h"
#include "shares/cost_expression.h"
#include "serial/convertible.h"
#include "serial/decomposition.h"
#include "shares/share_optimizer.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

TEST(DegenerateStrategies, OneBucketEqualsSerial) {
  const Graph g = ErdosRenyi(20, 60, 4);
  for (const auto& pattern :
       {SampleGraph::Triangle(), SampleGraph::Square(),
        SampleGraph::Lollipop()}) {
    const StrategyRegistry& registry = StrategyRegistry::Global();
    const auto metrics =
        registry
            .Run(EnumerationQuery::Undirected(pattern, g).WithStrategy(
                "bucket:1"))
            .metrics;
    EXPECT_EQ(metrics.outputs,
              registry
                  .Run(EnumerationQuery::Undirected(pattern, g).WithStrategy(
                      "serial"))
                  .instances)
        << pattern.ToString();
    EXPECT_EQ(metrics.key_value_pairs, g.num_edges());
    EXPECT_EQ(metrics.key_space, 1u);
  }
}

TEST(DegenerateStrategies, UnitSharesEqualsSerial) {
  const Graph g = ErdosRenyi(18, 50, 6);
  for (const auto& pattern :
       {SampleGraph::Triangle(), SampleGraph::Square()}) {
    const StrategyRegistry& registry = StrategyRegistry::Global();
    const std::vector<int> shares(pattern.num_vars(), 1);
    const auto metrics =
        registry
            .Run(EnumerationQuery::Undirected(pattern, g)
                     .WithSpec({"variable", {TunableValue::IntList(shares)}}))
            .metrics;
    EXPECT_EQ(metrics.outputs,
              registry
                  .Run(EnumerationQuery::Undirected(pattern, g).WithStrategy(
                      "serial"))
                  .instances)
        << pattern.ToString();
    EXPECT_EQ(metrics.key_space, 1u);
  }
}

TEST(Hypercube, IsRegularWithKnownAutomorphisms) {
  const SampleGraph q3 = SampleGraph::Hypercube(3);
  EXPECT_EQ(q3.num_vars(), 8);
  EXPECT_EQ(q3.num_edges(), 12);
  EXPECT_TRUE(q3.IsRegular());
  EXPECT_TRUE(q3.IsConnected());
  // |Aut(Q_d)| = 2^d * d!.
  EXPECT_EQ(q3.Automorphisms().size(), 8u * 6u);
  EXPECT_EQ(SampleGraph::Hypercube(2).Automorphisms().size(), 8u);  // = C4
}

TEST(Hypercube, Theorem41EqualShares) {
  // Theorem 4.1 explicitly covers hypercubes: single-CQ optimization gives
  // every variable share k^{1/8}.
  const SampleGraph q3 = SampleGraph::Hypercube(3);
  std::vector<int> identity_order(q3.num_vars());
  for (int i = 0; i < q3.num_vars(); ++i) identity_order[i] = i;
  const auto cq = ConjunctiveQuery::ForOrder(q3, identity_order);
  const auto solution =
      OptimizeShares(CostExpression::ForSingleCq(cq), 6561);  // 3^8
  for (double share : solution.shares) {
    EXPECT_NEAR(share, std::pow(6561.0, 1.0 / 8.0), 0.05);
  }
}

TEST(NodeOrderProperties, RanksAreAPermutation) {
  const BucketHasher hasher(7, 3);
  const NodeOrder order = NodeOrder::ByBucket(50, hasher);
  std::vector<bool> seen(50, false);
  for (NodeId u = 0; u < 50; ++u) {
    ASSERT_LT(order.Rank(u), 50u);
    ASSERT_FALSE(seen[order.Rank(u)]);
    seen[order.Rank(u)] = true;
  }
}

TEST(CycleCqsVsGeneral, SquareIsC4BothWays) {
  // For C4 both constructions need 3 CQs; together they find the same
  // squares.
  EXPECT_EQ(CycleCqs(4).size(), 3u);
  EXPECT_EQ(CqsForSample(SampleGraph::Cycle(4)).size(), 3u);
  const Graph g = ErdosRenyi(16, 44, 9);
  const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
  uint64_t via_runs = 0;
  for (const auto& entry : CycleCqs(4)) {
    via_runs += evaluator.Evaluate(entry.cq, nullptr, nullptr);
  }
  const uint64_t via_orders =
      evaluator.EvaluateAll(CqsForSample(SampleGraph::Cycle(4)), nullptr,
                            nullptr);
  EXPECT_EQ(via_runs, via_orders);
}

TEST(Decomposition, LargerPatterns) {
  // C7 and C9: odd Hamiltonian in one part -> (0, p/2).
  for (int p : {7, 9}) {
    const auto decomposition = DecomposeSample(SampleGraph::Cycle(p));
    ASSERT_TRUE(decomposition.has_value());
    const SerialCost cost = CostOfDecomposition(*decomposition);
    EXPECT_DOUBLE_EQ(cost.alpha, 0);
    EXPECT_DOUBLE_EQ(cost.beta, p / 2.0);
  }
  // K5: single odd-Hamiltonian part, (0, 2.5).
  const auto k5 = DecomposeSample(SampleGraph::Clique(5));
  ASSERT_TRUE(k5.has_value());
  EXPECT_DOUBLE_EQ(CostOfDecomposition(*k5).beta, 2.5);
  EXPECT_EQ(k5->IsolatedCount(), 0);
}

TEST(Decomposition, EnumerationOnStarAndTwoEdges) {
  // Patterns with isolated-node parts exercise the n-scan path.
  const Graph g = ErdosRenyi(12, 26, 15);
  for (const auto& pattern :
       {SampleGraph::Star(4), SampleGraph(5, {{0, 1}, {2, 3}})}) {
    const auto decomposition = DecomposeSample(pattern);
    ASSERT_TRUE(decomposition.has_value());
    CollectingSink sink;
    EnumerateByDecomposition(pattern, *decomposition, g, &sink, nullptr);
    EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
        << pattern.ToString();
  }
}

TEST(Engine, BytesScaleWithValueSize) {
  const Graph g = ErdosRenyi(20, 40, 2);
  const SampleGraph triangle = SampleGraph::Triangle();
  const auto metrics = StrategyRegistry::Global()
                           .Run(EnumerationQuery::Undirected(triangle, g)
                                    .WithStrategy("bucket:3"))
                           .metrics;
  EXPECT_EQ(metrics.bytes,
            metrics.key_value_pairs * (sizeof(uint64_t) + sizeof(Edge)));
}

TEST(SharesOptimizer, PathPatternHasDominatedEndpoints) {
  // In the path a-b-c-d evaluated by one CQ, the endpoint variables are
  // dominated by their unique neighbors.
  std::vector<int> identity = {0, 1, 2, 3};
  const auto cq = ConjunctiveQuery::ForOrder(SampleGraph::Path(4), identity);
  const auto dominated =
      CostExpression::ForSingleCq(cq).DominatedVars();
  EXPECT_TRUE(dominated[0]);
  EXPECT_TRUE(dominated[3]);
  EXPECT_FALSE(dominated[1]);
  EXPECT_FALSE(dominated[2]);
}

TEST(SharesOptimizer, CostDecreasesWithMoreReducersPerEdgeFixed) {
  // Communication per edge grows with k (more replication), but reducers
  // get smaller; sanity-check monotonicity of the optimizer output in k.
  const auto cqs = CqsForSample(SampleGraph::Square());
  const auto expression = CostExpression::ForCqSet(cqs);
  double last = 0;
  for (double k : {16.0, 256.0, 4096.0}) {
    const double cost = OptimizeShares(expression, k).cost_per_edge;
    EXPECT_GT(cost, last);
    last = cost;
  }
}

TEST(GeneratorEdgeCases, SmallGraphs) {
  EXPECT_THROW(ErdosRenyi(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(ErdosRenyi(4, 100, 1), std::invalid_argument);
  EXPECT_THROW(CycleGraph(2), std::invalid_argument);
  EXPECT_THROW(RegularTree(1, 2), std::invalid_argument);
  EXPECT_EQ(CompleteGraph(2).num_edges(), 1u);
}

TEST(MatcherEdgeCases, PatternLargerThanGraph) {
  const Graph tiny = CompleteGraph(3);
  EXPECT_EQ(CountInstances(SampleGraph::Clique(4), tiny), 0u);
  EXPECT_EQ(CountInstances(SampleGraph::Cycle(5), tiny), 0u);
}

TEST(MatcherEdgeCases, SingleEdgePattern) {
  const Graph g = ErdosRenyi(10, 20, 3);
  const SampleGraph edge(2, {{0, 1}});
  EXPECT_EQ(CountInstances(edge, g), g.num_edges());
}

TEST(ConvertibleAlgebra, StarsAreTight) {
  // Star(p): decomposition = 1 edge + (p-2) isolated nodes =>
  // (p-2, 1)-algorithm; p <= (p-2) + 2 holds with equality.
  for (int p : {3, 4, 5, 6}) {
    const SerialCost cost = BestDecompositionCost(SampleGraph::Star(p));
    EXPECT_DOUBLE_EQ(cost.alpha, p - 2);
    EXPECT_DOUBLE_EQ(cost.beta, 1);
    EXPECT_TRUE(IsConvertible(cost, p));
  }
}

}  // namespace
}  // namespace smr
