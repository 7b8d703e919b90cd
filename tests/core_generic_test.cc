#include <gtest/gtest.h>

#include "core/bucket_oriented.h"
#include "core/strategy.h"
#include "core/variable_oriented.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "serial/matcher.h"
#include "shares/replication_formulas.h"
#include "shares/share_optimizer.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

SampleGraph PatternById(int id) {
  switch (id) {
    case 0:
      return SampleGraph::Triangle();
    case 1:
      return SampleGraph::Square();
    case 2:
      return SampleGraph::Lollipop();
    case 3:
      return SampleGraph::Cycle(5);
    case 4:
      return SampleGraph::Clique(4);
    case 5:
      return SampleGraph::Path(4);
    default:
      return SampleGraph::Star(4);
  }
}

class BucketOrientedParam
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(BucketOrientedParam, FindsEachInstanceExactlyOnce) {
  const auto [pattern_id, buckets, seed] = GetParam();
  const SampleGraph pattern = PatternById(pattern_id);
  const Graph g = ErdosRenyi(22, 64, seed);
  CollectingSink sink;
  const auto metrics =
      StrategyRegistry::Global()
          .Run(EnumerationQuery::Undirected(pattern, g)
                   .WithSpec({"bucket", {TunableValue::Int(buckets)}})
                   .WithSeed(seed)
                   .WithSink(&sink))
          .metrics;
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
      << pattern.ToString() << " b=" << buckets << " seed=" << seed;
  // Section 4.5 exact replication: C(b+p-3, p-2) per edge.
  EXPECT_EQ(metrics.key_value_pairs,
            g.num_edges() *
                BucketOrientedEdgeReplication(buckets, pattern.num_vars()));
  EXPECT_EQ(metrics.key_space,
            BucketOrientedReducerCount(buckets, pattern.num_vars()));
  EXPECT_LE(metrics.distinct_keys, metrics.key_space);
}

INSTANTIATE_TEST_SUITE_P(Patterns, BucketOrientedParam,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(1ull, 9ull)));

class VariableOrientedParam
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(VariableOrientedParam, FindsEachInstanceExactlyOnce) {
  const auto [pattern_id, seed] = GetParam();
  const SampleGraph pattern = PatternById(pattern_id);
  const Graph g = ErdosRenyi(20, 56, seed);
  // Uneven shares stress the per-variable hashing.
  std::vector<int> shares(pattern.num_vars(), 2);
  shares[0] = 3;
  shares[pattern.num_vars() - 1] = 1;
  CollectingSink sink;
  StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, g)
          .WithSpec({"variable", {TunableValue::IntList(shares)}})
          .WithSeed(seed)
          .WithSink(&sink));
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
      << pattern.ToString() << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Patterns, VariableOrientedParam,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(2ull, 5ull)));

TEST(VariableOriented, CommunicationMatchesCostExpression) {
  // The shipped key-value pairs equal m * sum over subgoal terms of
  // coefficient * prod of other shares — the expression the optimizer
  // minimizes (Section 4.3).
  const SampleGraph pattern = SampleGraph::Square();
  const Graph g = ErdosRenyi(30, 120, 3);
  const std::vector<int> shares = {2, 3, 2, 4};
  const auto metrics = StrategyRegistry::Global()
                           .Run(EnumerationQuery::Undirected(pattern, g)
                                    .WithStrategy("variable:2x3x2x4"))
                           .metrics;
  const auto expression = CostExpression::ForCqSet(CqsForSample(pattern));
  const std::vector<double> shares_d(shares.begin(), shares.end());
  EXPECT_DOUBLE_EQ(metrics.ReplicationRate(),
                   expression.CostPerEdge(shares_d));
}

TEST(VariableOriented, AutoSharesApproximateBudget) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph g = ErdosRenyi(24, 80, 4);
  CollectingSink sink;
  const auto metrics = StrategyRegistry::Global()
                           .Run(EnumerationQuery::Undirected(pattern, g)
                                    .WithStrategy("variable-auto:27")
                                    .WithSeed(3)
                                    .WithSink(&sink))
                           .metrics;
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g));
  EXPECT_EQ(metrics.key_space, 27u);  // 3*3*3 for the regular triangle
}

TEST(VariableOriented, RoundSharesFloorsAtOne) {
  EXPECT_EQ(RoundShares({0.3, 1.2, 2.6}), (std::vector<int>{1, 1, 3}));
}

TEST(GeneralizedPartition, FindsEachInstanceExactlyOnce) {
  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop()};
  for (const auto& pattern : patterns) {
    const Graph g = ErdosRenyi(20, 56, 21);
    const auto cqs = CqsForSample(pattern);
    CollectingSink sink;
    GeneralizedPartitionEnumerate(pattern, cqs, g, 6, 2, &sink);
    EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
        << pattern.ToString();
  }
}

TEST(GeneralizedPartition, MeasuredReplicationMatchesFormulas) {
  // Section 4.5's comparison (ratio -> 1 + 1/(p-1)) is asymptotic in b; at
  // small b the binomials favor Partition. What must hold exactly at any b
  // is that measured replication matches the closed forms: expected
  // (1/b) C(b-1, p-1) + ((b-1)/b) C(b-2, p-2) for generalized Partition,
  // and exactly C(b+p-3, p-2) for bucket-oriented.
  const SampleGraph pattern = SampleGraph::Square();
  const Graph g = ErdosRenyi(300, 2400, 5);
  const auto cqs = CqsForSample(pattern);
  const int b = 10;
  const auto partition =
      GeneralizedPartitionEnumerate(pattern, cqs, g, b, 2, nullptr);
  const auto bucket = BucketOrientedEnumerate(pattern, cqs, g, b, 2, nullptr);
  EXPECT_NEAR(partition.ReplicationRate(),
              GeneralizedPartitionReplication(b, 4),
              0.1 * partition.ReplicationRate());
  EXPECT_DOUBLE_EQ(bucket.ReplicationRate(),
                   static_cast<double>(BucketOrientedEdgeReplication(b, 4)));
  EXPECT_EQ(partition.outputs, bucket.outputs);
}

TEST(BucketOriented, TrianglesAgreeWithSpecializedAlgorithm) {
  // The generic bucket-oriented path on the triangle pattern is the
  // Section 2.3 algorithm: same replication, same results.
  const Graph g = ErdosRenyi(40, 150, 8);
  const SampleGraph triangle = SampleGraph::Triangle();
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const int b = 5;
  const auto metrics =
      registry
          .Run(EnumerationQuery::Undirected(triangle, g)
                   .WithSpec({"bucket", {TunableValue::Int(b)}})
                   .WithSeed(3))
          .metrics;
  EXPECT_EQ(metrics.key_value_pairs, g.num_edges() * static_cast<uint64_t>(b));
  EXPECT_EQ(metrics.outputs,
            registry
                .Run(EnumerationQuery::Undirected(triangle, g).WithStrategy(
                    "serial"))
                .instances);
}

TEST(BucketOriented, PairPatternWorks) {
  // p = 2 (a single edge) is a degenerate but valid case: one reducer per
  // nondecreasing pair.
  const SampleGraph edge(2, {{0, 1}});
  const Graph g = ErdosRenyi(15, 40, 2);
  const auto cqs = CqsForSample(edge);
  CollectingSink sink;
  const auto metrics = BucketOrientedEnumerate(edge, cqs, g, 3, 1, &sink);
  EXPECT_EQ(metrics.outputs, g.num_edges());
  EXPECT_EQ(metrics.key_value_pairs, g.num_edges());  // C(b-1, 0) = 1
}

TEST(BucketOriented, ReducerWorkStaysConvertible) {
  // Section 6: summed over all reducers, bucket-oriented work stays within
  // a constant factor of the serial algorithm's, however many reducers run.
  // On a preferential-attachment graph with hubs, reducers that enumerate
  // every square of their subgraph and then discard the ones they do not
  // own do 4.5-7x the serial matcher's work. Pruning to owned assignments
  // inside the join and closing the square by intersection brought it to
  // 0.64x at most; confining each variable to its owned-colour window, to
  // 0.40x. The lollipop, joined triangle first, measures at most 2.40x
  // (3.09x without the windows); a plan that closes its triangle last with
  // one edge probe per candidate costs 9-12x.
  const struct {
    SampleGraph pattern;
    double bound;
  } cases[] = {{SampleGraph::Square(), 0.5}, {SampleGraph::Lollipop(), 2.75}};
  for (const auto& [pattern, bound] : cases) {
    const auto cqs = CqsForSample(pattern);
    for (uint64_t seed : {1ull, 2ull}) {
      const Graph g = PreferentialAttachment(400, 6, seed);
      CostCounter serial;
      const uint64_t instances =
          EnumerateInstances(pattern, g, nullptr, &serial);
      for (int b : {3, 5, 7}) {
        const auto metrics =
            BucketOrientedEnumerate(pattern, cqs, g, b, seed, nullptr);
        EXPECT_EQ(metrics.outputs, instances);
        EXPECT_EQ(metrics.reduce_cost.outputs, instances);
        const double ratio =
            static_cast<double>(metrics.reduce_cost.Total()) /
            static_cast<double>(serial.Total());
        EXPECT_LE(ratio, bound)
            << pattern.ToString() << " seed=" << seed << " b=" << b;
      }
    }
  }
}

TEST(RegistryEndToEnd, LollipopAgreesAcrossStrategies) {
  const SampleGraph lollipop = SampleGraph::Lollipop();
  const auto cqs = CqsForSample(lollipop);
  EXPECT_EQ(cqs.size(), 6u);  // Fig. 7
  const Graph g = PreferentialAttachment(120, 3, 5);
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const auto query = [&] { return EnumerationQuery::Undirected(lollipop, g); };
  const uint64_t serial =
      registry.Run(query().WithStrategy("serial")).instances;
  const auto bucket =
      registry.Run(query().WithStrategy("bucket:4").WithSeed(7)).metrics;
  EXPECT_EQ(bucket.outputs, serial);
  const auto solution = OptimizeShares(CostExpression::ForCqSet(cqs), 256);
  EXPECT_LT(solution.residual, 1e-3);
  const auto variable =
      registry
          .Run(query()
                   .WithSpec({"variable",
                              {TunableValue::IntList(
                                  RoundShares(solution.shares))}})
                   .WithSeed(7))
          .metrics;
  EXPECT_EQ(variable.outputs, serial);
}

TEST(RegistryEndToEnd, SkewedGraphStillExact) {
  // A power-law graph concentrates edges at hubs; exactness must not
  // depend on balanced buckets.
  const Graph g = PreferentialAttachment(80, 2, 9);
  const SampleGraph pattern = SampleGraph::Triangle();
  CollectingSink sink;
  StrategyRegistry::Global().Run(EnumerationQuery::Undirected(pattern, g)
                                     .WithStrategy("bucket:3")
                                     .WithSeed(11)
                                     .WithSink(&sink));
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g));
}

}  // namespace
}  // namespace smr
