#include <algorithm>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "cq/conjunctive_query.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "labeled/labeled_graph.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"
#include "util/rng.h"

namespace smr {
namespace {

TEST(ConjunctiveQuery, ForOrderBuildsSubgoalsAndCondition) {
  // Example 3.1: square with order W < X < Y < Z gives subgoals
  // E(W,X), E(X,Y), E(Y,Z), E(W,Z).
  const auto cq =
      ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 1, 2, 3});
  const std::vector<std::pair<int, int>> expected = {
      {0, 1}, {0, 3}, {1, 2}, {2, 3}};
  EXPECT_EQ(cq.subgoals(), expected);
  EXPECT_EQ(cq.allowed_orders().size(), 1u);
  EXPECT_TRUE(cq.OrderAllowed({0, 1, 2, 3}));
  EXPECT_FALSE(cq.OrderAllowed({1, 0, 2, 3}));
}

TEST(ConjunctiveQuery, MergeConditionUnionsOrders) {
  auto cq1 = ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 1, 2, 3});
  // W < X < Y < Z and its automorphic images share subgoals with no other
  // order, so construct a same-orientation variant by hand: condition
  // differs, subgoals must match.
  ConjunctiveQuery cq2(4, cq1.subgoals(), {{0, 1, 3, 2}});
  cq1.MergeCondition(cq2);
  EXPECT_EQ(cq1.allowed_orders().size(), 2u);
  EXPECT_TRUE(cq1.OrderAllowed({0, 1, 3, 2}));
}

TEST(ConjunctiveQuery, MergeRejectsDifferentSubgoals) {
  auto cq1 = ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 1, 2, 3});
  auto cq2 = ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 2, 1, 3});
  EXPECT_THROW(cq1.MergeCondition(cq2), std::invalid_argument);
}

TEST(ConjunctiveQuery, AtomsOfTotalOrder) {
  const auto cq =
      ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 1, 2, 3});
  const auto atoms = cq.Atoms();
  // Transitive reduction of a total order: the chain W<X, X<Y, Y<Z.
  const std::vector<std::pair<int, int>> expected = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(atoms.less, expected);
  EXPECT_TRUE(atoms.unordered.empty());
  EXPECT_TRUE(cq.ConditionIsPartialOrderExact());
}

TEST(CqGeneration, TriangleHasOneCq) {
  // The triangle has Aut group of size 6 = 3!, so 3!/6 = 1 CQ.
  const auto cqs = GenerateOrderCqs(SampleGraph::Triangle());
  EXPECT_EQ(cqs.size(), 1u);
  EXPECT_EQ(CqsForSample(SampleGraph::Triangle()).size(), 1u);
}

TEST(CqGeneration, SquareHasThreeCqs) {
  // Example 3.2: 24 orders / automorphism group of size 8 = 3 CQs, all with
  // distinct orientations (so orientation merging keeps 3).
  const auto raw = GenerateOrderCqs(SampleGraph::Square());
  EXPECT_EQ(raw.size(), 3u);
  const auto merged = CqsForSample(SampleGraph::Square());
  EXPECT_EQ(merged.size(), 3u);
}

TEST(CqGeneration, SquareOrientationsMatchExample32) {
  // All three square CQs share subgoals E(W,X) and E(W,Z); the other two
  // subgoals differ in orientation.
  const auto merged = CqsForSample(SampleGraph::Square());
  for (const auto& cq : merged) {
    const auto& sg = cq.subgoals();
    EXPECT_TRUE(std::count(sg.begin(), sg.end(), std::make_pair(0, 1)) == 1);
    EXPECT_TRUE(std::count(sg.begin(), sg.end(), std::make_pair(0, 3)) == 1);
  }
}

TEST(CqGeneration, LollipopTwelveOrdersSixOrientations) {
  // Fig. 5: twelve CQs (4!/2 quotient classes); Fig. 6: they group into six
  // orientations with sizes 1, 2, 3, 3, 2, 1.
  const auto raw = GenerateOrderCqs(SampleGraph::Lollipop());
  EXPECT_EQ(raw.size(), 12u);
  const auto merged = MergeByOrientation(raw);
  EXPECT_EQ(merged.size(), 6u);
  std::multiset<size_t> group_sizes;
  for (const auto& cq : merged) {
    group_sizes.insert(cq.allowed_orders().size());
  }
  EXPECT_EQ(group_sizes, (std::multiset<size_t>{1, 1, 2, 2, 3, 3}));
}

TEST(CqGeneration, LollipopRepresentativesKeepYBeforeZ) {
  // The automorphism swaps Y (var 2) and Z (var 3); lexicographic
  // representatives therefore put Y before Z, exactly the twelve orders of
  // Fig. 5.
  for (const auto& cq : GenerateOrderCqs(SampleGraph::Lollipop())) {
    const auto& order = cq.allowed_orders()[0];
    const auto pos = Inverse(order);
    EXPECT_LT(pos[2], pos[3]);
  }
}

TEST(CqGeneration, LollipopMergedConditionsMatchFig7) {
  // Fig. 7, group {3, 6, 9}: subgoals E(W,X) & E(Y,X) & E(Z,X) & E(Y,Z);
  // the OR of the conditions is Y<Z, Z<X, W<X (and W unordered vs Y, Z).
  const auto merged = CqsForSample(SampleGraph::Lollipop());
  const std::vector<std::pair<int, int>> wanted = {
      {0, 1}, {2, 1}, {2, 3}, {3, 1}};
  bool found = false;
  for (const auto& cq : merged) {
    auto sg = cq.subgoals();
    std::sort(sg.begin(), sg.end());
    auto sorted_wanted = wanted;
    std::sort(sorted_wanted.begin(), sorted_wanted.end());
    if (sg != sorted_wanted) continue;
    found = true;
    EXPECT_EQ(cq.allowed_orders().size(), 3u);
    EXPECT_TRUE(cq.ConditionIsPartialOrderExact());
    const auto atoms = cq.Atoms();
    // W unordered against Y and against Z.
    EXPECT_EQ(atoms.unordered,
              (std::vector<std::pair<int, int>>{{0, 2}, {0, 3}}));
  }
  EXPECT_TRUE(found);
}

TEST(CqGeneration, AllMergedConditionsArePartialOrderExact) {
  // Every merged group for these patterns is exactly describable as a
  // partial order plus disequalities, like Fig. 7.
  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop(), SampleGraph::Path(4),
                                  SampleGraph::Star(4)};
  for (const auto& pattern : patterns) {
    for (const auto& cq : CqsForSample(pattern)) {
      EXPECT_TRUE(cq.ConditionIsPartialOrderExact()) << cq.ToString();
    }
  }
}

TEST(CqGeneration, QuotientSizeEqualsFactorialOverAut) {
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(),  SampleGraph::Lollipop(),
      SampleGraph::Cycle(5),   SampleGraph::Clique(4), SampleGraph::Path(4),
      SampleGraph::Star(5)};
  for (const auto& pattern : patterns) {
    const auto raw = GenerateOrderCqs(pattern);
    EXPECT_EQ(raw.size(), Factorial(pattern.num_vars()) /
                              pattern.Automorphisms().size())
        << pattern.ToString();
  }
}

TEST(CqGeneration, ConditionsPartitionAllOrders) {
  // Across the merged CQ set, every total order appears in exactly one
  // condition... not so: only quotient representatives appear. But the
  // total number of allowed orders summed over CQs equals the number of
  // quotient classes.
  const SampleGraph patterns[] = {SampleGraph::Square(),
                                  SampleGraph::Lollipop(),
                                  SampleGraph::Cycle(5)};
  for (const auto& pattern : patterns) {
    size_t total = 0;
    std::set<std::vector<int>> seen;
    for (const auto& cq : CqsForSample(pattern)) {
      total += cq.allowed_orders().size();
      for (const auto& order : cq.allowed_orders()) {
        EXPECT_TRUE(seen.insert(order).second) << "order in two conditions";
      }
    }
    EXPECT_EQ(total, Factorial(pattern.num_vars()) /
                         pattern.Automorphisms().size());
  }
}

// ----------------------------------------------------------------- evaluator

class CqEvaluatorPatterns
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CqEvaluatorPatterns, UnionFindsEachInstanceExactlyOnce) {
  const auto [pattern_id, seed] = GetParam();
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(),  SampleGraph::Lollipop(),
      SampleGraph::Cycle(5),   SampleGraph::Clique(4), SampleGraph::Path(4),
      SampleGraph::Star(4)};
  const SampleGraph& pattern = patterns[pattern_id];
  const Graph g = ErdosRenyi(18, 50, seed);
  const auto cqs = CqsForSample(pattern);
  const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
  CollectingSink sink;
  evaluator.EvaluateAll(cqs, &sink, nullptr);
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
      << pattern.ToString() << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    PatternsBySeed, CqEvaluatorPatterns,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(1ull, 2ull, 3ull)));

TEST(CqEvaluator, WorksUnderBucketOrder) {
  const Graph g = ErdosRenyi(20, 60, 11);
  const BucketHasher hasher(4, 3);
  const CqEvaluator evaluator(g,
                              NodeOrder::ByBucket(g.num_nodes(), hasher));
  const auto cqs = CqsForSample(SampleGraph::Square());
  CollectingSink sink;
  evaluator.EvaluateAll(cqs, &sink, nullptr);
  EXPECT_EQ(KeysOf(sink, SampleGraph::Square()),
            GroundTruthKeys(SampleGraph::Square(), g));
}

TEST(CqEvaluator, SingleCqRespectsCondition) {
  // The single-order CQ W<X<Y<Z for the square finds only instances whose
  // induced order matches.
  const Graph g = ErdosRenyi(16, 44, 5);
  const auto cq =
      ConjunctiveQuery::ForOrder(SampleGraph::Square(), {0, 1, 2, 3});
  const NodeOrder order = NodeOrder::Identity(g.num_nodes());
  const CqEvaluator evaluator(g, order);
  CollectingSink sink;
  evaluator.Evaluate(cq, &sink, nullptr);
  for (const auto& assignment : sink.assignments()) {
    EXPECT_LT(assignment[0], assignment[1]);
    EXPECT_LT(assignment[1], assignment[2]);
    EXPECT_LT(assignment[2], assignment[3]);
    EXPECT_TRUE(g.HasEdge(assignment[0], assignment[1]));
    EXPECT_TRUE(g.HasEdge(assignment[1], assignment[2]));
    EXPECT_TRUE(g.HasEdge(assignment[2], assignment[3]));
    EXPECT_TRUE(g.HasEdge(assignment[0], assignment[3]));
  }
}

TEST(CqEvaluator, DisconnectedPatternSupported) {
  const SampleGraph two_edges(4, {{0, 1}, {2, 3}});
  const Graph g = ErdosRenyi(12, 24, 9);
  const auto cqs = CqsForSample(two_edges);
  const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
  CollectingSink sink;
  evaluator.EvaluateAll(cqs, &sink, nullptr);
  EXPECT_EQ(KeysOf(sink, two_edges), GroundTruthKeys(two_edges, g));
}

TEST(CqEvaluator, ToStringMentionsSubgoals) {
  const auto cq =
      ConjunctiveQuery::ForOrder(SampleGraph::Triangle(), {0, 1, 2});
  const std::string text = cq.ToString({"X", "Y", "Z"});
  EXPECT_NE(text.find("E(X,Y)"), std::string::npos);
  EXPECT_NE(text.find("X<Y"), std::string::npos);
}

// ----------------------------------------------------------------- ownership

/// Colour multiset of `assignment` (colour = bucket) as per-bucket counts.
std::vector<int> BucketCounts(std::span<const NodeId> assignment,
                              const BucketHasher& hasher) {
  std::vector<int> counts(hasher.buckets(), 0);
  for (const NodeId node : assignment) ++counts[hasher.Bucket(node)];
  return counts;
}

class CqEvaluatorOwnership : public ::testing::TestWithParam<int> {};

TEST_P(CqEvaluatorOwnership, EmitsExactlyTheOwnedAssignmentsInOrder) {
  // The seven CqEvaluatorPatterns patterns, a disconnected one (an
  // edge-seed step) and one with an isolated node (a free step). Under a
  // bucket order with colour = bucket, the owned join must emit precisely
  // the unowned join's assignments whose bucket multiset is the quota, in
  // the same order.
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(),
      SampleGraph::Lollipop(), SampleGraph::Cycle(5),
      SampleGraph::Clique(4),  SampleGraph::Path(4),
      SampleGraph::Star(4),    SampleGraph(4, {{0, 1}, {2, 3}}),
      SampleGraph(3, {{0, 1}})};
  const SampleGraph& pattern = patterns[GetParam()];
  const auto cqs = CqsForSample(pattern);
  const int p = pattern.num_vars();
  Rng rng(100 + GetParam());
  size_t owned_total = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = ErdosRenyi(18, 50, seed);
    const BucketHasher hasher(3, seed);
    const CqEvaluator evaluator(g, NodeOrder::ByBucket(g.num_nodes(), hasher));
    CollectingSink unowned;
    evaluator.EvaluateAll(cqs, &unowned, nullptr);

    Ownership ownership;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ownership.colour.push_back(hasher.Bucket(u));
    }
    for (int trial = 0; trial < 6; ++trial) {
      ownership.quota.assign(hasher.buckets(), 0);
      for (int v = 0; v < p; ++v) {
        ++ownership.quota[rng.Below(hasher.buckets())];
      }
      std::vector<std::vector<NodeId>> expected;
      for (const auto& assignment : unowned.assignments()) {
        if (BucketCounts(assignment, hasher) == ownership.quota) {
          expected.push_back(assignment);
        }
      }
      CollectingSink owned;
      CostCounter owned_cost;
      const uint64_t found =
          evaluator.EvaluateAll(cqs, &owned, &owned_cost, &ownership);
      EXPECT_EQ(owned.assignments(), expected)
          << pattern.ToString() << " seed=" << seed << " trial=" << trial;
      EXPECT_EQ(found, expected.size());
      EXPECT_EQ(owned_cost.outputs, expected.size());
      owned_total += expected.size();
    }
  }
  EXPECT_GT(owned_total, 0u) << pattern.ToString();
}

INSTANTIATE_TEST_SUITE_P(Patterns, CqEvaluatorOwnership, ::testing::Range(0, 9));

TEST(CqEvaluatorOwnership, RejectsContractViolations) {
  const Graph g = ErdosRenyi(12, 30, 4);
  const BucketHasher hasher(3, 4);
  const CqEvaluator evaluator(g, NodeOrder::ByBucket(g.num_nodes(), hasher));
  const auto cqs = CqsForSample(SampleGraph::Square());
  Ownership valid;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    valid.colour.push_back(hasher.Bucket(u));
  }
  valid.quota = {2, 1, 1};
  EXPECT_NO_THROW(evaluator.EvaluateAll(cqs, nullptr, nullptr, &valid));

  // Colours that are not nondecreasing along the order: under the identity
  // order, bucket colours are scrambled.
  const CqEvaluator identity(g, NodeOrder::Identity(g.num_nodes()));
  EXPECT_THROW(identity.EvaluateAll(cqs, nullptr, nullptr, &valid),
               std::invalid_argument);

  Ownership short_quota = valid;
  short_quota.quota = {1, 1, 1};  // totals 3, the square has 4 variables
  EXPECT_THROW(evaluator.EvaluateAll(cqs, nullptr, nullptr, &short_quota),
               std::invalid_argument);
  Ownership long_quota = valid;
  long_quota.quota = {2, 2, 1};
  EXPECT_THROW(evaluator.Evaluate(cqs[0], nullptr, nullptr, &long_quota),
               std::invalid_argument);

  Ownership short_colours = valid;
  short_colours.colour.pop_back();
  EXPECT_THROW(evaluator.EvaluateAll(cqs, nullptr, nullptr, &short_colours),
               std::invalid_argument);

  Ownership out_of_range = valid;
  out_of_range.colour.back() = 3;
  EXPECT_THROW(evaluator.EvaluateAll(cqs, nullptr, nullptr, &out_of_range),
               std::invalid_argument);
  out_of_range.colour.back() = -1;
  EXPECT_THROW(evaluator.EvaluateAll(cqs, nullptr, nullptr, &out_of_range),
               std::invalid_argument);
}

TEST(CqEvaluatorOwnership, RequireOwnedNamesTheReducerKey) {
  const Ownership ownership{{0, 0, 1, 1}, {1, 1}};
  const std::vector<NodeId> owned = {0, 2};
  EXPECT_NO_THROW(ownership.RequireOwned(owned, "bucket-oriented", 17));
  const std::vector<NodeId> foreign = {0, 1};
  try {
    ownership.RequireOwned(foreign, "bucket-oriented", 17);
    ADD_FAILURE() << "an unowned assignment was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("bucket-oriented reducer 17"),
              std::string::npos)
        << e.what();
  }
}

TEST(CqEvaluatorOwnership, BucketInstanceStreamIsPinned) {
  // Pruning inside the reducer join must not change which instances a
  // bucket-oriented run emits, or their order. Pinned before the pruning
  // existed.
  const Graph graph = PreferentialAttachment(300, 4, 5);
  CollectingSink sink;
  StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(SampleGraph::Square(), graph)
          .WithStrategy("bucket:4")
          .WithSeed(3)
          .WithSink(&sink));
  EXPECT_EQ(sink.assignments().size(), 3422u);
  EXPECT_EQ(Fnv1a(sink.assignments()), 14362290505890692992ull);
}

TEST(CqEvaluatorOwnership, LabeledInstanceStreamIsPinned) {
  const Graph skeleton = ErdosRenyi(120, 700, 11);
  std::vector<LabeledEdge> edges;
  for (const auto& [u, v] : skeleton.edges()) {
    edges.push_back({u, v, static_cast<EdgeLabel>((u + v) % 2)});
  }
  const LabeledGraph graph(skeleton.num_nodes(), std::move(edges));
  const LabeledSampleGraph square(
      4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {3, 0, 1}});
  CollectingSink sink;
  StrategyRegistry::Global().Run(EnumerationQuery::Labeled(square, graph)
                                     .WithStrategy("labeled:3")
                                     .WithSeed(3)
                                     .WithSink(&sink));
  EXPECT_EQ(sink.assignments().size(), 549u);
  EXPECT_EQ(Fnv1a(sink.assignments()), 4487542350526535009ull);
}

}  // namespace
}  // namespace smr
