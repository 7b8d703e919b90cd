#include <algorithm>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "cq/conjunctive_query.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
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
  // Its transitive closure: every pair, as the evaluator prunes with it.
  const std::vector<std::pair<int, int>> closure = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(atoms.entailed, closure);
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

TEST(CqEvaluator, RejectsEdgesThatAreNotOrderedRankPairs) {
  const NodeId n = 4;
  for (const Edge& bad : {Edge(2, 2), Edge(3, 1), Edge(1, n)}) {
    EXPECT_THROW(CqEvaluator(n, {{0, 1}, bad}), std::invalid_argument);
  }
  const CqEvaluator empty(0, {});
  EXPECT_EQ(empty.EvaluateAll(CqsForSample(SampleGraph::Triangle()), nullptr,
                              nullptr),
            0u);
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

TEST_P(CqEvaluatorOwnership, RankedSubgraphBuildMatchesTheGraphBuild) {
  // A reducer builds its evaluator straight from the edges shipped to it
  // (BuildRankedSubgraph). It must join exactly like an evaluator over the
  // same edges built as a Graph under the same order: the same
  // assignments, in the same order, at the same cost, however the edges
  // arrive. The spans are relabelled to [0, k) first, so every node of the
  // reference graph is an endpoint and ByBucket on the relabelled ids is
  // the order both builds use.
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(),
      SampleGraph::Lollipop(), SampleGraph::Cycle(5),
      SampleGraph::Clique(4),  SampleGraph::Path(4),
      SampleGraph::Star(4),    SampleGraph(4, {{0, 1}, {2, 3}}),
      SampleGraph(3, {{0, 1}})};
  const SampleGraph& pattern = patterns[GetParam()];
  const auto cqs = CqsForSample(pattern);
  const int p = pattern.num_vars();
  Rng rng(200 + GetParam());
  size_t compared = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = ErdosRenyi(30, 120, seed);
    const BucketHasher hasher(3, seed);
    const NodeOrder order = NodeOrder::ByBucket(g.num_nodes(), hasher);
    // Reducer-shaped spans: the edges a bucket-oriented mapper ships to
    // three of the keys, oriented by the order, plus the whole edge list.
    const BucketKeys keys(hasher.buckets(), std::max(p, 2));
    std::vector<std::vector<Edge>> shipped(3);
    for (const Edge& e : g.edges()) {
      const Edge oriented = order.Orient(e);
      keys.ForEach(hasher.Bucket(oriented.first),
                   hasher.Bucket(oriented.second), [&](uint64_t key) {
                     if (key < shipped.size()) shipped[key].push_back(oriented);
                   });
    }
    shipped.push_back(g.edges());
    for (const std::vector<Edge>& span : shipped) {
      const Subgraph relabelled = BuildSubgraph(span);
      const NodeId k = relabelled.graph.num_nodes();
      const NodeOrder local_order = NodeOrder::ByBucket(k, hasher);
      CollectingSink expected;
      CostCounter expected_cost;
      CqEvaluator(relabelled.graph, local_order)
          .EvaluateAll(cqs, &expected, &expected_cost);

      // The span in relabelled ids as it arrived, then shuffled, with
      // every edge reversed, and with every edge twice.
      std::vector<Edge> arrived;
      for (const auto& [u, v] : span) {
        const auto local = [&](NodeId node) {
          return static_cast<NodeId>(
              std::lower_bound(relabelled.local_to_global.begin(),
                               relabelled.local_to_global.end(), node) -
              relabelled.local_to_global.begin());
        };
        arrived.emplace_back(local(u), local(v));
      }
      std::vector<Edge> shuffled = arrived;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
      }
      std::vector<Edge> reversed;
      for (const auto& [u, v] : arrived) reversed.emplace_back(v, u);
      std::vector<Edge> doubled = shuffled;
      doubled.insert(doubled.end(), reversed.begin(), reversed.end());
      for (const auto* variant : {&arrived, &shuffled, &reversed, &doubled}) {
        RankedSubgraph ranked = BuildRankedSubgraph(*variant, local_order);
        ASSERT_EQ(ranked.num_nodes(), k);
        CollectingSink got;
        CostCounter got_cost;
        CqEvaluator(k, std::move(ranked.edges))
            .EvaluateAll(cqs, &got, &got_cost);
        std::vector<std::vector<NodeId>> translated = got.assignments();
        for (auto& assignment : translated) {
          for (NodeId& node : assignment) {
            node = ranked.local_to_global[node];
          }
        }
        EXPECT_EQ(translated, expected.assignments())
            << pattern.ToString() << " seed=" << seed;
        EXPECT_EQ(got_cost, expected_cost)
            << pattern.ToString() << " seed=" << seed;
        compared += expected.assignments().size();
      }
    }
  }
  EXPECT_GT(compared, 0u) << pattern.ToString();

  // An empty span builds an empty evaluator; a single edge, one node pair.
  const NodeOrder order = NodeOrder::Identity(8);
  const RankedSubgraph empty = BuildRankedSubgraph({}, order);
  EXPECT_TRUE(empty.local_to_global.empty());
  EXPECT_TRUE(empty.edges.empty());
  CostCounter empty_cost;
  EXPECT_EQ(CqEvaluator(0, {}).EvaluateAll(cqs, nullptr, &empty_cost), 0u);
  EXPECT_EQ(empty_cost, CostCounter());
  const std::vector<Edge> single = {{6, 2}};
  const RankedSubgraph one = BuildRankedSubgraph(single, order);
  EXPECT_EQ(one.local_to_global, (std::vector<NodeId>{2, 6}));
  EXPECT_EQ(one.edges, (std::vector<Edge>{{0, 1}}));
  CollectingSink one_sink;
  CostCounter one_cost;
  CqEvaluator(2, one.edges).EvaluateAll(cqs, &one_sink, &one_cost);
  CollectingSink reference_sink;
  CostCounter reference_cost;
  CqEvaluator(Graph(2, {{0, 1}}), NodeOrder::Identity(2))
      .EvaluateAll(cqs, &reference_sink, &reference_cost);
  EXPECT_EQ(one_sink.assignments(), reference_sink.assignments());
  EXPECT_EQ(one_cost, reference_cost);
}

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

TEST(CqEvaluatorOwnership, BucketStreamsOfFixedPlansArePinned) {
  // Closing cycles by intersection must not change the instances a
  // bucket-oriented run emits, or their order, for patterns whose join
  // plan the degree-first planner leaves alone: the clique and the cycle
  // (degree-regular), Path(3), and two disjoint edges (an edge-seed step).
  // Pinned before the rank-space join existed.
  const Graph graph = PreferentialAttachment(300, 4, 5);
  const struct {
    SampleGraph pattern;
    size_t instances;
    uint64_t fnv1a;
  } pins[] = {
      {SampleGraph::Clique(4), 57, 8967663702599189238ull},
      {SampleGraph::Cycle(5), 32779, 3328644581178042628ull},
      {SampleGraph::Path(3), 16831, 9464496185417745210ull},
      {SampleGraph(4, {{0, 1}, {2, 3}}), 690624, 13585110873108436489ull}};
  for (const auto& pin : pins) {
    CollectingSink sink;
    StrategyRegistry::Global().Run(
        EnumerationQuery::Undirected(pin.pattern, graph)
            .WithStrategy("bucket:4")
            .WithSeed(3)
            .WithSink(&sink));
    EXPECT_EQ(sink.assignments().size(), pin.instances)
        << pin.pattern.ToString();
    EXPECT_EQ(Fnv1a(sink.assignments()), pin.fnv1a) << pin.pattern.ToString();
  }
}

TEST(CqEvaluatorOwnership, TriangleFirstPlansEmitEachInstanceOnce) {
  // The lollipop and the diamond seed on their highest-degree edge and
  // close the triangle next, so their stream order follows that plan and
  // is not pinned. The instance multiset is: exactly the serial matcher's,
  // with no instance twice.
  const SampleGraph patterns[] = {
      SampleGraph::Lollipop(),
      SampleGraph(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})};
  const Graph graphs[] = {ErdosRenyi(60, 300, 4),
                          PreferentialAttachment(80, 4, 6)};
  for (const SampleGraph& pattern : patterns) {
    for (const Graph& graph : graphs) {
      const auto truth = GroundTruthKeys(pattern, graph);
      ASSERT_GT(truth.size(), 0u) << pattern.ToString();
      for (const int b : {2, 3, 5}) {
        CollectingSink sink;
        StrategyRegistry::Global().Run(
            EnumerationQuery::Undirected(pattern, graph)
                .WithStrategy("bucket:" + std::to_string(b))
                .WithSeed(b)
                .WithSink(&sink));
        const auto keys = KeysOf(sink, pattern);
        EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
            << pattern.ToString() << " b=" << b << " emitted a duplicate";
        EXPECT_EQ(keys, truth) << pattern.ToString() << " b=" << b;
      }
    }
  }
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
