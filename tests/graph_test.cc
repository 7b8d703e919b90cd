#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/node_order.h"
#include "graph/rank_adjacency.h"
#include "graph/sample_graph.h"
#include "graph/subgraph.h"

namespace smr {
namespace {

TEST(Graph, BasicProperties) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 0}, {3, 1}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_EQ(g.Degree(1), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(Graph, DeduplicatesAndCanonicalizes) {
  Graph g(3, {{1, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edges()[0], Edge(0, 1));
  EXPECT_EQ(g.edges()[1], Edge(1, 2));
}

TEST(Graph, RejectsSelfLoopAndOutOfRange) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5, {{0, 4}, {0, 2}, {0, 1}});
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 4u);
}

TEST(NodeOrder, IdentityAndNodesByRank) {
  const NodeOrder order = NodeOrder::Identity(5);
  EXPECT_TRUE(order.Less(0, 4));
  EXPECT_EQ(order.NodesByRank(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  const NodeOrder by_degree = NodeOrder::ByDegree(g);
  const std::vector<NodeId> nodes = by_degree.NodesByRank();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(nodes[by_degree.Rank(u)], u);
  }
}

TEST(NodeOrder, ByDegreeSortsAscending) {
  // Node 0 has degree 3, node 3 degree 1.
  Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  const NodeOrder order = NodeOrder::ByDegree(g);
  EXPECT_TRUE(order.Less(3, 0));  // degree 1 before degree 3
  EXPECT_TRUE(order.Less(1, 0));
  EXPECT_TRUE(order.Less(1, 2));  // tie on degree 2, id breaks it
}

TEST(NodeOrder, ByBucketGroupsBuckets) {
  const BucketHasher hasher(3, 11);
  const NodeOrder order = NodeOrder::ByBucket(100, hasher);
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = 0; v < 100; ++v) {
      if (hasher.Bucket(u) < hasher.Bucket(v)) {
        EXPECT_TRUE(order.Less(u, v));
      }
    }
  }
}

TEST(RankAdjacency, SuccessorsRespectOrder) {
  Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}});
  const RankAdjacency ranked(4, RankEdges(g, NodeOrder::Identity(4)));
  EXPECT_EQ(ranked.Successors(0).size(), 3u);
  EXPECT_TRUE(ranked.Successors(3).empty());
  size_t total = 0;
  for (NodeId r = 0; r < 4; ++r) total += ranked.Successors(r).size();
  EXPECT_EQ(total, g.num_edges());
}

TEST(RankAdjacency, AgreesWithGraphNeighbors) {
  const Graph g = ErdosRenyi(300, 2400, 77);
  const BucketHasher hasher(5, 3);
  for (const NodeOrder& order :
       {NodeOrder::ByDegree(g), NodeOrder::ByBucket(g.num_nodes(), hasher),
        NodeOrder::Identity(g.num_nodes())}) {
    const RankAdjacency ranked(g.num_nodes(), RankEdges(g, order));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const uint32_t r = order.Rank(u);
      std::vector<NodeId> expected;
      for (const NodeId v : g.Neighbors(u)) expected.push_back(order.Rank(v));
      std::sort(expected.begin(), expected.end());
      const auto row = ranked.Row(r);
      EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), expected);
      const auto above =
          std::upper_bound(expected.begin(), expected.end(), r);
      const auto successors = ranked.Successors(r);
      EXPECT_EQ(std::vector<NodeId>(successors.begin(), successors.end()),
                std::vector<NodeId>(above, expected.end()));
    }
    EXPECT_EQ(ranked.MaxDegree(), g.MaxDegree());
  }
}

TEST(RankAdjacency, RejectsEdgesThatAreNotOrderedRankPairs) {
  const NodeId n = 4;
  for (const Edge& bad : {Edge(2, 2), Edge(3, 1), Edge(1, n)}) {
    const std::vector<Edge> edges = {{0, 1}, bad};
    EXPECT_THROW(RankAdjacency(n, edges), std::invalid_argument);
  }
  const RankAdjacency empty(0, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.MaxDegree(), 0u);
}

TEST(Subgraph, RelabelsDensely) {
  const std::vector<Edge> edges = {{10, 20}, {20, 30}};
  const Subgraph sub = BuildSubgraph(edges);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.local_to_global, (std::vector<NodeId>{10, 20, 30}));
  EXPECT_TRUE(sub.graph.HasEdge(0, 1));
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_FALSE(sub.graph.HasEdge(0, 2));
}

TEST(Generators, ErdosRenyiHasRequestedEdges) {
  const Graph g = ErdosRenyi(100, 300, 1);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
}

TEST(Generators, ErdosRenyiDeterministicPerSeed) {
  const Graph a = ErdosRenyi(50, 100, 7);
  const Graph b = ErdosRenyi(50, 100, 7);
  const Graph c = ErdosRenyi(50, 100, 8);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, CycleCliqueBipartiteGrid) {
  EXPECT_EQ(CycleGraph(7).num_edges(), 7u);
  EXPECT_EQ(CompleteGraph(6).num_edges(), 15u);
  EXPECT_EQ(CompleteBipartite(3, 4).num_edges(), 12u);
  const Graph grid = GridGraph(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 17u);  // 3*3 + 2*4 horizontal+vertical
  EXPECT_LE(grid.MaxDegree(), 4u);
}

TEST(Generators, RegularTreeShape) {
  const int delta = 4;
  const Graph tree = RegularTree(delta, 3);
  // Root has delta children; each internal node delta-1.
  EXPECT_EQ(tree.Degree(0), static_cast<size_t>(delta));
  EXPECT_EQ(tree.MaxDegree(), static_cast<size_t>(delta));
  EXPECT_EQ(tree.num_edges(), tree.num_nodes() - 1u);
}

TEST(Generators, DegreeCappedRespectsCap) {
  const Graph g = DegreeCapped(200, 400, 5, 3);
  EXPECT_LE(g.MaxDegree(), 5u);
  EXPECT_GT(g.num_edges(), 300u);  // should nearly reach the target
}

TEST(Generators, StarGraph) {
  const Graph g = StarGraph(9);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.Degree(0), 9u);
}

TEST(GraphIo, RoundTrip) {
  const Graph g = ErdosRenyi(30, 60, 5);
  std::stringstream buffer;
  WriteEdgeList(g, buffer);
  const Graph back = ReadEdgeList(buffer);
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(GraphIo, SkipsCommentsAndBlank) {
  std::stringstream in("# comment\n0 1\n\n2 3 # trailing\n");
  const Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SampleGraph, NamedPatterns) {
  EXPECT_EQ(SampleGraph::Triangle().num_edges(), 3);
  EXPECT_EQ(SampleGraph::Square().num_edges(), 4);
  EXPECT_EQ(SampleGraph::Lollipop().num_edges(), 4);
  EXPECT_EQ(SampleGraph::Cycle(6).num_edges(), 6);
  EXPECT_EQ(SampleGraph::Clique(5).num_edges(), 10);
  EXPECT_EQ(SampleGraph::Path(4).num_edges(), 3);
  EXPECT_EQ(SampleGraph::Star(5).num_edges(), 4);
}

TEST(SampleGraph, AutomorphismGroupSizes) {
  // Section 3.2: the square has 8 automorphisms; the lollipop 2 (identity
  // and the Y<->Z swap); C_p has 2p; K_p has p!.
  EXPECT_EQ(SampleGraph::Square().Automorphisms().size(), 8u);
  EXPECT_EQ(SampleGraph::Lollipop().Automorphisms().size(), 2u);
  EXPECT_EQ(SampleGraph::Cycle(5).Automorphisms().size(), 10u);
  EXPECT_EQ(SampleGraph::Cycle(6).Automorphisms().size(), 12u);
  EXPECT_EQ(SampleGraph::Clique(4).Automorphisms().size(), 24u);
  EXPECT_EQ(SampleGraph::Path(3).Automorphisms().size(), 2u);
  EXPECT_EQ(SampleGraph::Star(5).Automorphisms().size(), 24u);
}

TEST(SampleGraph, RegularityAndConnectivity) {
  EXPECT_TRUE(SampleGraph::Cycle(5).IsRegular());
  EXPECT_TRUE(SampleGraph::Clique(4).IsRegular());
  EXPECT_FALSE(SampleGraph::Lollipop().IsRegular());
  EXPECT_TRUE(SampleGraph::Lollipop().IsConnected());
  const SampleGraph two_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(two_edges.IsConnected());
}

TEST(SampleGraph, ArticulationPoints) {
  // Lollipop: X (variable 1) is the articulation point.
  const SampleGraph lollipop = SampleGraph::Lollipop();
  EXPECT_TRUE(lollipop.IsArticulation(1));
  EXPECT_FALSE(lollipop.IsArticulation(0));
  EXPECT_FALSE(lollipop.IsArticulation(2));
  // Path a-b-c: b is articulation.
  const SampleGraph path = SampleGraph::Path(3);
  EXPECT_TRUE(path.IsArticulation(1));
  EXPECT_FALSE(path.IsArticulation(0));
}

TEST(SampleGraph, HasEdgeSymmetric) {
  const SampleGraph square = SampleGraph::Square();
  EXPECT_TRUE(square.HasEdge(0, 1));
  EXPECT_TRUE(square.HasEdge(1, 0));
  EXPECT_FALSE(square.HasEdge(0, 2));  // diagonal
}

}  // namespace
}  // namespace smr
