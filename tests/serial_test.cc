#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/node_order.h"
#include "graph/rank_adjacency.h"
#include "serial/bounded_degree.h"
#include "serial/convertible.h"
#include "serial/decomposition.h"
#include "serial/matcher.h"
#include "serial/odd_cycle.h"
#include "serial/triangles.h"
#include "serial/two_paths.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

// ---------------------------------------------------------------- matcher

TEST(Matcher, TrianglesInCompleteGraph) {
  // K_n has C(n,3) triangles.
  for (int n = 3; n <= 7; ++n) {
    EXPECT_EQ(CountInstances(SampleGraph::Triangle(), CompleteGraph(n)),
              Binomial(n, 3));
  }
}

TEST(Matcher, SquaresInCompleteGraph) {
  // K_n has 3*C(n,4) squares (each 4-set gives 3 distinct 4-cycles).
  for (int n = 4; n <= 7; ++n) {
    EXPECT_EQ(CountInstances(SampleGraph::Square(), CompleteGraph(n)),
              3 * Binomial(n, 4));
  }
}

TEST(Matcher, CyclesInCompleteBipartite) {
  // K_{a,b} has C(a,2)*C(b,2) 4-cycles... times 1 (each 2+2 node choice
  // gives exactly one 4-cycle up to automorphism).
  EXPECT_EQ(CountInstances(SampleGraph::Cycle(4), CompleteBipartite(3, 3)),
            Binomial(3, 2) * Binomial(3, 2));
  EXPECT_EQ(CountInstances(SampleGraph::Triangle(), CompleteBipartite(4, 4)),
            0u);
}

TEST(Matcher, StarsInStarGraph) {
  // A star K_{1,d} contains C(d, p-1) p-stars centered at the hub.
  const Graph star = StarGraph(6);
  EXPECT_EQ(CountInstances(SampleGraph::Star(3), star), Binomial(6, 2));
  EXPECT_EQ(CountInstances(SampleGraph::Star(4), star), Binomial(6, 3));
}

TEST(Matcher, PathsInPathGraph) {
  // The path graph with 5 nodes has 3 paths of 3 nodes.
  Graph path(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(CountInstances(SampleGraph::Path(3), path), 3u);
  EXPECT_EQ(CountInstances(SampleGraph::Path(5), path), 1u);
}

TEST(Matcher, LollipopByHand) {
  // Triangle 0-1-2 with pendant 3 attached to node 0: exactly one lollipop
  // (pendant W=3 attached at X=0).
  Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
  EXPECT_EQ(CountInstances(SampleGraph::Lollipop(), g), 1u);
}

TEST(Matcher, CliqueInstancesAreSubgraphsNotInduced) {
  // K4 contains 4 triangles (subgraph semantics, extra edges allowed).
  EXPECT_EQ(CountInstances(SampleGraph::Triangle(), CompleteGraph(4)), 4u);
  // And 3 squares even though none is induced.
  EXPECT_EQ(CountInstances(SampleGraph::Square(), CompleteGraph(4)), 3u);
}

TEST(Matcher, DisconnectedPattern) {
  // Two disjoint edges in a path of 4 nodes (edges 01,12,23): pairs of
  // node-disjoint edges: {01,23} only.
  const SampleGraph two_edges(4, {{0, 1}, {2, 3}});
  Graph path(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(CountInstances(two_edges, path), 1u);
}

TEST(Matcher, EmitsEachInstanceOnce) {
  const Graph g = ErdosRenyi(20, 60, 2);
  CollectingSink sink;
  EnumerateInstances(SampleGraph::Square(), g, &sink, nullptr);
  auto keys = KeysOf(sink, SampleGraph::Square());
  std::vector<InstanceKey> unique = keys;
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(unique.size(), keys.size());
}

// ---------------------------------------------------------------- triangles

TEST(Triangles, MatchesMatcherOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = ErdosRenyi(60, 240, seed);
    EXPECT_EQ(CountTriangles(g),
              CountInstances(SampleGraph::Triangle(), g));
  }
}

TEST(Triangles, WorksUnderAnyOrder) {
  const Graph g = ErdosRenyi(40, 160, 17);
  const uint64_t expected = CountInstances(SampleGraph::Triangle(), g);
  EXPECT_EQ(EnumerateTriangles(g, NodeOrder::Identity(g.num_nodes()), nullptr,
                               nullptr),
            expected);
  EXPECT_EQ(EnumerateTriangles(g, NodeOrder::ByDegree(g), nullptr, nullptr),
            expected);
  const BucketHasher hasher(4, 5);
  EXPECT_EQ(EnumerateTriangles(g, NodeOrder::ByBucket(g.num_nodes(), hasher),
                               nullptr, nullptr),
            expected);
}

TEST(Triangles, CountsMatchAcrossOrders) {
  for (uint64_t seed : {3u, 17u, 99u}) {
    const Graph g = ErdosRenyi(500, 4000, seed);
    const uint64_t by_degree =
        EnumerateTriangles(g, NodeOrder::ByDegree(g), nullptr, nullptr);
    const BucketHasher hasher(6, seed);
    EXPECT_EQ(EnumerateTriangles(g, NodeOrder::ByBucket(g.num_nodes(), hasher),
                                 nullptr, nullptr),
              by_degree);
    EXPECT_EQ(EnumerateTriangles(g, NodeOrder::Identity(g.num_nodes()),
                                 nullptr, nullptr),
              by_degree);
    EXPECT_EQ(by_degree, CountTriangles(g));
  }
}

TEST(Triangles, SetsMatchAcrossOrders) {
  // Same triangles as sets of nodes, not just the same count.
  const Graph g = ErdosRenyi(200, 1200, 23);
  auto normalized = [&](const NodeOrder& order) {
    CollectingSink sink;
    EnumerateTriangles(g, order, &sink, nullptr);
    std::vector<std::vector<NodeId>> triangles = sink.assignments();
    for (auto& t : triangles) std::sort(t.begin(), t.end());
    std::sort(triangles.begin(), triangles.end());
    return triangles;
  };
  const std::vector<std::vector<NodeId>> by_degree =
      normalized(NodeOrder::ByDegree(g));
  EXPECT_FALSE(by_degree.empty());
  EXPECT_EQ(normalized(NodeOrder::ByBucket(g.num_nodes(), BucketHasher(6, 1))),
            by_degree);
  EXPECT_EQ(normalized(NodeOrder::Identity(g.num_nodes())), by_degree);
}

TEST(Triangles, CostIsOrderM32WithDegreeOrder) {
  // On a star graph the identity order examines C(d,2) pairs at the hub,
  // while the degree order examines none from leaves and the hub is last.
  const Graph star = StarGraph(1000);
  CostCounter identity_cost;
  EnumerateTriangles(star, NodeOrder::Identity(star.num_nodes()), nullptr,
                     &identity_cost);
  CostCounter degree_cost;
  EnumerateTriangles(star, NodeOrder::ByDegree(star), nullptr, &degree_cost);
  EXPECT_GT(identity_cost.candidates, 400000u);
  EXPECT_EQ(degree_cost.candidates, 0u);
}

// ---------------------------------------------------------------- 2-paths

TEST(TwoPaths, CountOnStar) {
  // Star with d leaves: hub is last in degree order, so no properly ordered
  // 2-path has the hub as midpoint; each leaf is midpoint of none (degree
  // 1). Properly ordered 2-paths: midpoint must precede both endpoints;
  // only the hub has 2 neighbors, and the hub is the maximum. So zero.
  EXPECT_EQ(CountProperlyOrderedTwoPaths(StarGraph(10)), 0u);
}

TEST(TwoPaths, TotalEqualsSumOverMidpoints) {
  const Graph g = ErdosRenyi(50, 150, 4);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const RankAdjacency ranked(g.num_nodes(), RankEdges(g, order));
  uint64_t expected = 0;
  for (NodeId r = 0; r < g.num_nodes(); ++r) {
    const uint64_t d = ranked.Successors(r).size();
    expected += d * (d - 1) / 2;
  }
  EXPECT_EQ(CountProperlyOrderedTwoPaths(g), expected);
}

TEST(TwoPaths, VisitReportsProperlyOrdered) {
  const Graph g = ErdosRenyi(30, 90, 6);
  const NodeOrder order = NodeOrder::ByDegree(g);
  EnumerateProperlyOrderedTwoPaths(
      g, order,
      [&](NodeId e1, NodeId mid, NodeId e2) {
        EXPECT_TRUE(order.Less(mid, e1));
        EXPECT_TRUE(order.Less(mid, e2));
        EXPECT_TRUE(order.Less(e1, e2));
        EXPECT_TRUE(g.HasEdge(mid, e1));
        EXPECT_TRUE(g.HasEdge(mid, e2));
      },
      nullptr);
}

// ---------------------------------------------------------------- odd cycle

TEST(OddCycle, TrianglesViaK1) {
  const Graph g = ErdosRenyi(40, 150, 9);
  const uint64_t expected = CountInstances(SampleGraph::Triangle(), g);
  EXPECT_EQ(EnumerateOddCycles(g, NodeOrder::ByDegree(g), 1, nullptr, nullptr),
            expected);
}

TEST(OddCycle, PentagonsMatchMatcher) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = ErdosRenyi(16, 40, seed);
    EXPECT_EQ(
        EnumerateOddCycles(g, NodeOrder::ByDegree(g), 2, nullptr, nullptr),
        CountInstances(SampleGraph::Cycle(5), g))
        << "seed=" << seed;
  }
}

TEST(OddCycle, HeptagonsMatchMatcher) {
  const Graph g = ErdosRenyi(12, 26, 3);
  EXPECT_EQ(EnumerateOddCycles(g, NodeOrder::ByDegree(g), 3, nullptr, nullptr),
            CountInstances(SampleGraph::Cycle(7), g));
}

TEST(OddCycle, CycleGraphHasExactlyOne) {
  EXPECT_EQ(EnumerateOddCycles(CycleGraph(5), NodeOrder::Identity(5), 2,
                               nullptr, nullptr),
            1u);
}

TEST(OddCycle, ReportsValidCycles) {
  const Graph g = ErdosRenyi(14, 36, 8);
  const NodeOrder order = NodeOrder::ByDegree(g);
  EnumerateOddCycles(g, order, 2,
                     [&](const std::vector<NodeId>& cycle) {
                       ASSERT_EQ(cycle.size(), 5u);
                       for (size_t i = 0; i < 5; ++i) {
                         EXPECT_TRUE(g.HasEdge(cycle[i], cycle[(i + 1) % 5]));
                         // v1 is the order-minimum.
                         if (i > 0) {
                           EXPECT_TRUE(order.Less(cycle[0], cycle[i]));
                         }
                       }
                       // v2 < v_last.
                       EXPECT_TRUE(order.Less(cycle[1], cycle[4]));
                     },
                     nullptr);
}

TEST(OddCycle, FindHamiltonCycle) {
  EXPECT_EQ(FindHamiltonCycle(SampleGraph::Cycle(5)).size(), 5u);
  EXPECT_EQ(FindHamiltonCycle(SampleGraph::Clique(5)).size(), 5u);
  EXPECT_TRUE(FindHamiltonCycle(SampleGraph::Star(4)).empty());
  EXPECT_TRUE(FindHamiltonCycle(SampleGraph::Path(4)).empty());
}

TEST(OddCycle, HamiltonianPatternWithChord) {
  // C5 plus one chord ("house" graph).
  SampleGraph house(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {0, 2}});
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = ErdosRenyi(14, 40, seed + 20);
    CollectingSink sink;
    EnumerateHamiltonianOddPattern(house, g, NodeOrder::ByDegree(g), &sink,
                                   nullptr);
    EXPECT_EQ(KeysOf(sink, house), GroundTruthKeys(house, g))
        << "seed=" << seed;
  }
}

TEST(OddCycle, HamiltonianK5) {
  // K5 is Hamiltonian with odd p; instances of K5 in K6 = C(6,5).
  CollectingSink sink;
  const Graph k6 = CompleteGraph(6);
  EnumerateHamiltonianOddPattern(SampleGraph::Clique(5), k6,
                                 NodeOrder::ByDegree(k6), &sink, nullptr);
  EXPECT_EQ(sink.assignments().size(), Binomial(6, 5));
}

// ------------------------------------------------------------ decomposition

TEST(Decomposition, LollipopUsesTwoEdges) {
  const auto decomposition = DecomposeSample(SampleGraph::Lollipop());
  ASSERT_TRUE(decomposition.has_value());
  EXPECT_EQ(decomposition->IsolatedCount(), 0);
}

TEST(Decomposition, TriangleIsOddHamiltonian) {
  const auto decomposition = DecomposeSample(SampleGraph::Triangle());
  ASSERT_TRUE(decomposition.has_value());
  ASSERT_EQ(decomposition->parts.size(), 1u);
  EXPECT_EQ(decomposition->parts[0].kind,
            Decomposition::Kind::kOddHamiltonian);
}

TEST(Decomposition, StarNeedsIsolatedNodes) {
  // Star with 4 nodes: only one edge part can pair the center; the other
  // two leaves are isolated.
  const auto decomposition = DecomposeSample(SampleGraph::Star(4));
  ASSERT_TRUE(decomposition.has_value());
  EXPECT_EQ(decomposition->IsolatedCount(), 2);
}

TEST(Decomposition, CostMatchesTheorem72) {
  // Theorem 7.2: q isolated of p total => (q, (p-q)/2)-algorithm,
  // always convertible.
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(), SampleGraph::Lollipop(),
      SampleGraph::Cycle(5),   SampleGraph::Star(4),  SampleGraph::Clique(4)};
  for (const auto& pattern : patterns) {
    const auto decomposition = DecomposeSample(pattern);
    ASSERT_TRUE(decomposition.has_value());
    const SerialCost cost = CostOfDecomposition(*decomposition);
    const int q = decomposition->IsolatedCount();
    EXPECT_DOUBLE_EQ(cost.alpha, q);
    EXPECT_DOUBLE_EQ(cost.beta, (pattern.num_vars() - q) / 2.0);
    EXPECT_TRUE(IsConvertible(cost, pattern.num_vars()));
  }
}

TEST(Decomposition, EnumerationMatchesMatcher) {
  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop(),
                                  SampleGraph::Star(4),
                                  SampleGraph::Cycle(5),
                                  SampleGraph(4, {{0, 1}, {2, 3}})};
  for (const auto& pattern : patterns) {
    const Graph g = ErdosRenyi(14, 34, 31);
    const auto decomposition = DecomposeSample(pattern);
    ASSERT_TRUE(decomposition.has_value());
    CollectingSink sink;
    EnumerateByDecomposition(pattern, *decomposition, g, &sink, nullptr);
    EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
        << pattern.ToString() << " via " << decomposition->ToString();
  }
}

// ----------------------------------------------------------- bounded degree

TEST(BoundedDegree, AssignmentOrderIsConnected) {
  const SampleGraph patterns[] = {SampleGraph::Square(),
                                  SampleGraph::Lollipop(),
                                  SampleGraph::Cycle(6), SampleGraph::Path(5)};
  for (const auto& pattern : patterns) {
    const auto order = BoundedDegreeAssignmentOrder(pattern);
    ASSERT_EQ(order.size(), static_cast<size_t>(pattern.num_vars()));
    EXPECT_TRUE(pattern.HasEdge(order[0], order[1]));
    for (size_t i = 2; i < order.size(); ++i) {
      bool has_earlier_neighbor = false;
      for (size_t j = 0; j < i; ++j) {
        has_earlier_neighbor |= pattern.HasEdge(order[i], order[j]);
      }
      EXPECT_TRUE(has_earlier_neighbor) << pattern.ToString();
    }
  }
}

TEST(BoundedDegree, MatchesMatcherOnBoundedGraphs) {
  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(), SampleGraph::Path(4),
                                  SampleGraph::Star(4)};
  const Graph g = DegreeCapped(60, 120, 6, 13);
  for (const auto& pattern : patterns) {
    CollectingSink sink;
    EnumerateBoundedDegree(pattern, g, &sink, nullptr);
    EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
        << pattern.ToString();
  }
}

TEST(BoundedDegree, StarCountInRegularTree) {
  // Section 7.3: a Delta-regular tree has C(Delta, p-1) stars per internal
  // node.
  const int delta = 5;
  const Graph tree = RegularTree(delta, 3);
  uint64_t expected = 0;
  for (NodeId u = 0; u < tree.num_nodes(); ++u) {
    expected += Binomial(tree.Degree(u), 2);  // p = 3 star: choose 2 leaves
  }
  CountingSink sink;
  EnumerateBoundedDegree(SampleGraph::Star(3), tree, &sink, nullptr);
  EXPECT_EQ(sink.count(), expected);
}

TEST(BoundedDegree, RejectsDisconnectedPattern) {
  const SampleGraph two_edges(4, {{0, 1}, {2, 3}});
  const Graph g = ErdosRenyi(10, 20, 1);
  EXPECT_THROW(EnumerateBoundedDegree(two_edges, g, nullptr, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------------- convertible

TEST(Convertible, Theorem61Condition) {
  // Triangles: p=3, (0, 3/2): 3 <= 0 + 3 -> convertible.
  EXPECT_TRUE(IsConvertible(SerialCost{0, 1.5}, 3));
  // A hypothetical (0,1)-algorithm for triangles would not be convertible.
  EXPECT_FALSE(IsConvertible(SerialCost{0, 1.0}, 3));
  // Edges: p=2, (0,1): 2 <= 2.
  EXPECT_TRUE(IsConvertible(SerialCost{0, 1}, 2));
  // Isolated node: p=1, (1,0).
  EXPECT_TRUE(IsConvertible(SerialCost{1, 0}, 1));
}

TEST(Convertible, CombineIsAdditive) {
  const SerialCost c = Combine(SerialCost{1, 0.5}, SerialCost{0, 1});
  EXPECT_DOUBLE_EQ(c.alpha, 1);
  EXPECT_DOUBLE_EQ(c.beta, 1.5);
}

TEST(Convertible, BestDecompositionCostExamples) {
  // Example 6.2-style: patterns decomposable into edges and odd cycles get
  // (0, p/2).
  const SerialCost square = BestDecompositionCost(SampleGraph::Square());
  EXPECT_DOUBLE_EQ(square.alpha, 0);
  EXPECT_DOUBLE_EQ(square.beta, 2);
  const SerialCost c5 = BestDecompositionCost(SampleGraph::Cycle(5));
  EXPECT_DOUBLE_EQ(c5.alpha, 0);
  EXPECT_DOUBLE_EQ(c5.beta, 2.5);
}

}  // namespace
}  // namespace smr
