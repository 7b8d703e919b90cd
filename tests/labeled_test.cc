#include <set>

#include <gtest/gtest.h>

#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace smr {
namespace {

constexpr EdgeLabel kKnows = 0;
constexpr EdgeLabel kBuysFrom = 1;

LabeledGraph RandomLabeledGraph(NodeId n, size_t m, int num_labels,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledEdge> edges;
  std::set<std::pair<NodeId, NodeId>> seen;
  while (edges.size() < m) {
    NodeId u = static_cast<NodeId>(rng.Below(n));
    NodeId v = static_cast<NodeId>(rng.Below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    edges.push_back(
        {u, v, static_cast<EdgeLabel>(rng.Below(num_labels))});
  }
  return LabeledGraph(n, std::move(edges));
}

TEST(LabeledGraph, LabelLookup) {
  LabeledGraph g(4, {{0, 1, kKnows}, {2, 1, kBuysFrom}});
  EXPECT_EQ(g.LabelOf(0, 1), kKnows);
  EXPECT_EQ(g.LabelOf(1, 0), kKnows);
  EXPECT_EQ(g.LabelOf(1, 2), kBuysFrom);
  EXPECT_FALSE(g.LabelOf(0, 2).has_value());
  EXPECT_TRUE(g.HasLabeledEdge(0, 1, kKnows));
  EXPECT_FALSE(g.HasLabeledEdge(0, 1, kBuysFrom));
}

TEST(LabeledGraph, RejectsConflictingLabels) {
  EXPECT_THROW(LabeledGraph(3, {{0, 1, kKnows}, {1, 0, kBuysFrom}}),
               std::invalid_argument);
}

TEST(LabeledSampleGraph, LabelPreservingAutomorphismsAreSubgroup) {
  // Triangle with all edges labeled alike keeps all 6 automorphisms;
  // distinct labels cut the group down.
  const LabeledSampleGraph uniform(
      3, {{0, 1, kKnows}, {1, 2, kKnows}, {0, 2, kKnows}});
  EXPECT_EQ(uniform.Automorphisms().size(), 6u);

  const LabeledSampleGraph mixed(
      3, {{0, 1, kKnows}, {1, 2, kKnows}, {0, 2, kBuysFrom}});
  // Only the identity and the swap of 0,1 preserve labels.
  EXPECT_EQ(mixed.Automorphisms().size(), 2u);
}

TEST(LabeledCqs, MoreCqsThanUnlabeled) {
  // Section 8: smaller automorphism groups => more CQs. The mixed-label
  // triangle has 3!/2 = 3 quotient classes vs 1 for the plain triangle.
  const LabeledSampleGraph mixed(
      3, {{0, 1, kKnows}, {1, 2, kKnows}, {0, 2, kBuysFrom}});
  const auto cqs = LabeledCqsForSample(mixed);
  size_t orders = 0;
  for (const auto& lcq : cqs) orders += lcq.cq.allowed_orders().size();
  EXPECT_EQ(orders, 3u);
  // Labels align with the (sorted) subgoals.
  for (const auto& lcq : cqs) {
    ASSERT_EQ(lcq.labels.size(), lcq.cq.subgoals().size());
    for (size_t s = 0; s < lcq.labels.size(); ++s) {
      const auto& [a, b] = lcq.cq.subgoals()[s];
      EXPECT_EQ(lcq.labels[s], mixed.LabelOf(a, b));
    }
  }
}

TEST(LabeledMatcher, HandCountedInstances) {
  // A triangle 0-1-2 where edge {0,2} is "buys from" and a second triangle
  // 0-1-3 all "knows".
  const LabeledGraph g(4, {{0, 1, kKnows},
                           {1, 2, kKnows},
                           {0, 2, kBuysFrom},
                           {1, 3, kKnows},
                           {0, 3, kKnows}});
  const LabeledSampleGraph all_knows(
      3, {{0, 1, kKnows}, {1, 2, kKnows}, {0, 2, kKnows}});
  EXPECT_EQ(EnumerateLabeledInstances(all_knows, g, nullptr, nullptr), 1u);

  const LabeledSampleGraph mixed(
      3, {{0, 1, kKnows}, {1, 2, kKnows}, {0, 2, kBuysFrom}});
  EXPECT_EQ(EnumerateLabeledInstances(mixed, g, nullptr, nullptr), 1u);

  const LabeledSampleGraph all_buys(
      3, {{0, 1, kBuysFrom}, {1, 2, kBuysFrom}, {0, 2, kBuysFrom}});
  EXPECT_EQ(EnumerateLabeledInstances(all_buys, g, nullptr, nullptr), 0u);
}

TEST(LabeledMatcher, UniformLabelsMatchUnlabeledMatcher) {
  // With a single label everywhere, labeled enumeration equals unlabeled.
  const LabeledGraph g = RandomLabeledGraph(20, 60, 1, 3);
  const LabeledSampleGraph labeled_square(
      4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 3, 0}});
  CollectingSink labeled_sink;
  EnumerateLabeledInstances(labeled_square, g, &labeled_sink, nullptr);
  EXPECT_EQ(KeysOf(labeled_sink, SampleGraph::Square()),
            GroundTruthKeys(SampleGraph::Square(), g.skeleton()));
}

class LabeledMrParam
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(LabeledMrParam, BucketOrientedMatchesSerial) {
  const auto [buckets, seed] = GetParam();
  const LabeledGraph g = RandomLabeledGraph(20, 56, 2, seed);
  const LabeledSampleGraph patterns[] = {
      LabeledSampleGraph(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}}),
      LabeledSampleGraph(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}}),
      LabeledSampleGraph(4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {0, 3, 1}}),
      LabeledSampleGraph(4, {{0, 1, 1}, {1, 2, 0}, {1, 3, 0}, {2, 3, 1}}),
  };
  for (const auto& pattern : patterns) {
    CollectingSink mr_sink;
    const auto metrics =
        LabeledBucketOrientedEnumerate(pattern, g, buckets, seed, &mr_sink);
    CollectingSink serial_sink;
    EnumerateLabeledInstances(pattern, g, &serial_sink, nullptr);
    EXPECT_EQ(KeysOf(mr_sink, pattern.skeleton()),
              KeysOf(serial_sink, pattern.skeleton()))
        << pattern.ToString() << " b=" << buckets << " seed=" << seed;
    // Each emitted instance is one output of the cost model, not two: the
    // join's own count of its solutions stays out of the reducer's cost.
    EXPECT_EQ(metrics.reduce_cost.outputs, mr_sink.assignments().size())
        << pattern.ToString() << " b=" << buckets << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(BucketsBySeed, LabeledMrParam,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(1ull, 7ull)));

TEST(LabeledMr, ReplicationMatchesUnlabeledFormula) {
  // Labels ride along with the edges; communication is identical to the
  // unlabeled bucket-oriented scheme: C(b+p-3, p-2) per edge.
  const LabeledGraph g = RandomLabeledGraph(30, 100, 2, 9);
  const LabeledSampleGraph pattern(
      3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}});
  const auto metrics =
      LabeledBucketOrientedEnumerate(pattern, g, 5, 1, nullptr);
  EXPECT_EQ(metrics.key_value_pairs, g.num_edges() * 5u);
}

}  // namespace
}  // namespace smr
