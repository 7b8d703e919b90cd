// Tests for the registry-driven Query/Strategy/Result API
// (core/strategy.h): every registered strategy against the serial
// reference, spec round-trips, error paths, advisor-driven `auto`
// selection, and byte-identical equivalence with the legacy entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/bucket_oriented.h"
#include "core/plan_advisor.h"
#include "core/strategy.h"
#include "core/triangle_algorithms.h"
#include "core/triangle_census.h"
#include "core/two_round_triangles.h"
#include "core/variable_oriented.h"
#include "cq/cq_generation.h"
#include "directed/directed_enumeration.h"
#include "directed/directed_graph.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "mapreduce/policy_spec.h"
#include "serial/matcher.h"
#include "serial/triangles.h"

namespace smr {
namespace {

Graph TestGraph() { return ErdosRenyi(60, 240, 7); }

LabeledGraph TestLabeledGraph(const Graph& skeleton) {
  std::vector<LabeledEdge> edges;
  for (const auto& [u, v] : skeleton.edges()) {
    edges.push_back({u, v, static_cast<EdgeLabel>((u + v) % 3)});
  }
  return LabeledGraph(skeleton.num_nodes(), std::move(edges));
}

DirectedGraph TestDirectedGraph(const Graph& skeleton) {
  return DirectedGraph(skeleton.num_nodes(), skeleton.edges());
}

// ---------------------------------------------------------------------------
// Every registered strategy matches the serial reference
// ---------------------------------------------------------------------------

// Pinned roster of the builtin strategy names, exactly as `smr_cli
// --list-strategies` prints them. Registering a strategy means adding it
// here (and thereby to the per-strategy coverage loops below, which
// iterate the live registry); tools/smr_lint.py cross-checks that every
// name registered in src/core/builtin_strategies.cc appears in this file,
// so a strategy cannot ship without registry-test coverage.
TEST(StrategyRegistry, RegisteredNamesArePinned) {
  const std::vector<std::string> expected = {
      "serial",  "bucket",        "variable", "variable-auto",
      "partition", "multiway",    "orderedbucket", "tworound",
      "census",  "labeled",       "directed", "auto",
  };
  std::vector<std::string> actual;
  for (const Strategy* strategy : StrategyRegistry::Global().Strategies()) {
    actual.push_back(strategy->name());
  }
  std::sort(actual.begin(), actual.end());
  std::vector<std::string> sorted_expected = expected;
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(actual, sorted_expected);
}

TEST(StrategyRegistry, EveryStrategyMatchesSerialReferenceOnTriangle) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = TestGraph();
  const uint64_t expected = CountInstances(pattern, graph);
  ASSERT_GT(expected, 0u);

  const LabeledSampleGraph labeled_pattern(3, {{0, 1, 0}, {0, 2, 0},
                                               {1, 2, 0}});
  std::vector<LabeledEdge> uniform;
  for (const auto& [u, v] : graph.edges()) uniform.push_back({u, v, 0});
  const LabeledGraph labeled_graph(graph.num_nodes(), std::move(uniform));

  const DirectedSampleGraph directed_pattern(3, {{0, 1}, {0, 2}, {1, 2}});
  const DirectedGraph directed_graph = TestDirectedGraph(graph);

  for (const Strategy* strategy :
       StrategyRegistry::Global().Strategies()) {
    const StrategyCapabilities& caps = strategy->capabilities();
    EnumerationQuery query =
        caps.undirected
            ? EnumerationQuery::Undirected(pattern, graph)
        : caps.labeled
            ? EnumerationQuery::Labeled(labeled_pattern, labeled_graph)
            : EnumerationQuery::Directed(directed_pattern, directed_graph);
    query.WithStrategy(strategy->name());
    const EnumerationResult result = StrategyRegistry::Global().Run(query);
    EXPECT_EQ(result.instances, expected) << strategy->name();
  }
}

TEST(StrategyRegistry, GeneralPatternStrategiesMatchSerialOnSquare) {
  const SampleGraph pattern = SampleGraph::Square();
  const Graph graph = TestGraph();
  const uint64_t expected = CountInstances(pattern, graph);

  for (const Strategy* strategy :
       StrategyRegistry::Global().Strategies()) {
    const StrategyCapabilities& caps = strategy->capabilities();
    if (!caps.undirected || caps.triangle_only) continue;
    const EnumerationResult result = StrategyRegistry::Global().Run(
        EnumerationQuery::Undirected(pattern, graph)
            .WithStrategy(strategy->name()));
    EXPECT_EQ(result.instances, expected) << strategy->name();
  }
}

TEST(StrategyRegistry, InstancesReachTheSinkIdenticallyAcrossStrategies) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = TestGraph();
  CollectingSink reference;
  EnumerateInstances(pattern, graph, &reference, nullptr);
  const auto expected_keys = reference.Keys(pattern.edges());

  for (const char* name : {"bucket", "partition", "multiway",
                           "orderedbucket", "tworound", "variable-auto"}) {
    CollectingSink sink;
    StrategyRegistry::Global().Run(
        EnumerationQuery::Undirected(pattern, graph)
            .WithStrategy(name)
            .WithSink(&sink));
    EXPECT_EQ(sink.Keys(pattern.edges()), expected_keys) << name;
  }
}

// ---------------------------------------------------------------------------
// Spec parsing: round trips and error paths
// ---------------------------------------------------------------------------

TEST(StrategySpec, RoundTripsToCanonicalForm) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"bucket", "bucket:8"},
      {"bucket:6", "bucket:6"},
      {"variable", "variable"},
      {"variable:2x2x3", "variable:2x2x3"},
      {"variable-auto", "variable-auto:256"},
      {"variable-auto:729", "variable-auto:729"},
      {"variable-auto:1.5", "variable-auto:1.5"},
      {"auto", "auto:256"},
      {"auto:500", "auto:500"},
      {"serial", "serial"},
      {"partition:5", "partition:5"},
      {"multiway", "multiway:4"},
      {"orderedbucket:10", "orderedbucket:10"},
      {"tworound", "tworound"},
      {"census", "census"},
      {"labeled:4", "labeled:4"},
      {"directed", "directed:8"},
  };
  for (const auto& [input, canonical] : cases) {
    EXPECT_EQ(ParseStrategySpec(input).ToSpec(), canonical) << input;
    // The canonical form is a fixed point.
    EXPECT_EQ(ParseStrategySpec(canonical).ToSpec(), canonical) << canonical;
  }
}

TEST(StrategySpec, RejectsGarbageAndOverflowInsteadOfRunningWithZero) {
  const char* bad[] = {
      "",
      "bucket:abc",
      "bucket:",
      "bucket: 8",
      "bucket:8 ",
      "bucket:0x8",
      "bucket:99999999999999999999",   // overflows int64
      "bucket:0",                      // below min
      "bucket:-3",
      "bucket:3:4",                    // too many tunables
      "variable:2x0x2",                // share below 1
      "variable:2xfoo",
      "variable-auto:nan",
      "variable-auto:inf",
      "variable-auto:0.5",             // below min budget
      "partition:2",                   // Partition needs b >= 3
      "auto:",
  };
  for (const char* spec : bad) {
    EXPECT_THROW(ParseStrategySpec(spec), std::invalid_argument) << spec;
  }
}

TEST(StrategySpec, RejectsNonFiniteBudgetsBuiltInCode) {
  // The text parser rejects "nan" and "inf"; a spec built in code skips
  // it, so ResolveSpec (which every Run goes through) must reject them too.
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = TestGraph();
  const double infinity = std::numeric_limits<double>::infinity();
  for (const char* name : {"variable-auto", "auto"}) {
    const Strategy& strategy = StrategyRegistry::Global().Require(name);
    for (const double k : {std::nan(""), infinity, -infinity}) {
      const StrategySpec spec{name, {TunableValue::Double(k)}};
      EXPECT_THROW(strategy.ResolveSpec(spec), std::invalid_argument)
          << name << " k=" << k;
      EXPECT_THROW(StrategyRegistry::Global().Run(
                       EnumerationQuery::Undirected(pattern, graph)
                           .WithSpec(spec)),
                   std::invalid_argument)
          << name << " k=" << k;
    }
  }
}

TEST(StrategySpec, UnknownNameErrorListsTheRegisteredNames) {
  try {
    ParseStrategySpec("definitely-not-registered");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown strategy"), std::string::npos);
    EXPECT_NE(message.find("bucket"), std::string::npos);
    EXPECT_NE(message.find("tworound"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Capability validation
// ---------------------------------------------------------------------------

TEST(StrategyRegistry, RejectsTriangleOnlyStrategyOnOtherPatterns) {
  const SampleGraph square = SampleGraph::Square();
  const Graph graph = TestGraph();
  for (const char* name : {"tworound", "census", "partition", "multiway",
                           "orderedbucket"}) {
    EXPECT_THROW(StrategyRegistry::Global().Run(
                     EnumerationQuery::Undirected(square, graph)
                         .WithStrategy(name)),
                 std::invalid_argument)
        << name;
  }
}

TEST(StrategyRegistry, RejectsFamilyMismatches) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = TestGraph();
  const LabeledSampleGraph labeled_pattern(3,
                                           {{0, 1, 0}, {0, 2, 0}, {1, 2, 0}});
  const LabeledGraph labeled_graph = TestLabeledGraph(graph);
  const DirectedSampleGraph directed_pattern(3, {{0, 1}, {0, 2}, {1, 2}});
  const DirectedGraph directed_graph = TestDirectedGraph(graph);

  // Labeled-only strategy on an undirected query and vice versa.
  EXPECT_THROW(StrategyRegistry::Global().Run(
                   EnumerationQuery::Undirected(pattern, graph)
                       .WithStrategy("labeled")),
               std::invalid_argument);
  EXPECT_THROW(StrategyRegistry::Global().Run(
                   EnumerationQuery::Labeled(labeled_pattern, labeled_graph)
                       .WithStrategy("bucket")),
               std::invalid_argument);
  EXPECT_THROW(StrategyRegistry::Global().Run(
                   EnumerationQuery::Undirected(pattern, graph)
                       .WithStrategy("directed")),
               std::invalid_argument);
  EXPECT_THROW(StrategyRegistry::Global().Run(
                   EnumerationQuery::Directed(directed_pattern,
                                              directed_graph)
                       .WithStrategy("census")),
               std::invalid_argument);
}

/// Runs `query` and returns the std::invalid_argument message, or "" when
/// the run does not throw.
std::string RejectionOf(const EnumerationQuery& query) {
  try {
    StrategyRegistry::Global().Run(query);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(StrategyRegistry, RejectsIsolatedPatternVariablesOffSerial) {
  // Reducers see only the edges shipped to them, so a data node no edge
  // reaches is never bound. These patterns each have a variable in no
  // edge; run unchecked on this graph, bucket:3 returns 0, 1529 and 5742
  // and auto:64 0, 60 and 222, where serial finds 435, 1680 and 5994.
  const Graph graph = ErdosRenyi(30, 60, 1);
  const StrategyRegistry& registry = StrategyRegistry::Global();
  const std::pair<SampleGraph, uint64_t> cases[] = {
      {SampleGraph(2, {}), 435},
      {SampleGraph(3, {{0, 1}}), 1680},
      {SampleGraph(4, {{0, 1}, {1, 2}}), 5994}};
  for (const auto& [pattern, serial] : cases) {
    const auto query = [&] {
      return EnumerationQuery::Undirected(pattern, graph);
    };
    EXPECT_EQ(registry.Run(query().WithStrategy("serial")).instances, serial)
        << pattern.ToString();
    for (const char* spec : {"bucket:3", "auto:64", "variable-auto:64"}) {
      EXPECT_NE(RejectionOf(query().WithStrategy(spec)).find("no pattern edge"),
                std::string::npos)
          << spec << " on " << pattern.ToString();
    }
    for (const Strategy* strategy : registry.Strategies()) {
      if (strategy->name() == "serial") continue;
      EXPECT_THROW(registry.Run(query().WithStrategy(strategy->name())),
                   std::invalid_argument)
          << strategy->name() << " on " << pattern.ToString();
    }
  }

  // Two disjoint edges have no isolated variable: every strategy agrees.
  const SampleGraph two_edges(4, {{0, 1}, {2, 3}});
  for (const char* spec : {"serial", "bucket:3", "auto:64"}) {
    EXPECT_EQ(registry
                  .Run(EnumerationQuery::Undirected(two_edges, graph)
                           .WithStrategy(spec))
                  .instances,
              1548u)
        << spec;
  }

  // The labeled and directed families: one edge plus an isolated variable.
  std::vector<LabeledEdge> labeled_edges;
  for (const auto& [u, v] : graph.edges()) labeled_edges.push_back({u, v, 0});
  const LabeledGraph labeled_graph(graph.num_nodes(), labeled_edges);
  const LabeledSampleGraph labeled_pattern(3, {{0, 1, 0}});
  const auto labeled = [&] {
    return EnumerationQuery::Labeled(labeled_pattern, labeled_graph);
  };
  EXPECT_EQ(registry.Run(labeled().WithStrategy("serial")).instances, 1680u);
  EXPECT_NE(RejectionOf(labeled().WithStrategy("labeled:3"))
                .find("no pattern edge"),
            std::string::npos);

  const DirectedGraph directed_graph = TestDirectedGraph(graph);
  const DirectedSampleGraph directed_pattern(3, {{0, 1}});
  const auto directed = [&] {
    return EnumerationQuery::Directed(directed_pattern, directed_graph);
  };
  EXPECT_EQ(registry.Run(directed().WithStrategy("serial")).instances, 1680u);
  EXPECT_NE(RejectionOf(directed().WithStrategy("directed:3"))
                .find("no pattern edge"),
            std::string::npos);
}

TEST(StrategyRegistry, RejectsMalformedQueries) {
  EnumerationQuery empty;
  empty.spec.name = "serial";
  EXPECT_THROW(StrategyRegistry::Global().Run(empty),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// auto:<k> routes through the PlanAdvisor
// ---------------------------------------------------------------------------

PlanInputs InputsFor(const Graph& graph, double k, bool triangle,
                     bool counting_only) {
  PlanInputs inputs;
  inputs.k = k;
  inputs.nodes = graph.num_nodes();
  inputs.edges = graph.num_edges();
  if (triangle && graph.num_edges() > 0) {
    inputs.wedges = CountOrderedWedges(graph);
  }
  inputs.counting_only = counting_only;
  return inputs;
}

const char* SpecNameFor(StrategyPlan::Strategy s) {
  switch (s) {
    case StrategyPlan::Strategy::kBucketOriented:
      return "bucket";
    case StrategyPlan::Strategy::kVariableOriented:
      return "variable-auto";
    case StrategyPlan::Strategy::kTwoRound:
      return "tworound";
    case StrategyPlan::Strategy::kCensus:
      return "census";
  }
  return "?";
}

TEST(AutoStrategy, PicksTheAdvisorsRecommendationCountingOnly) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = ErdosRenyi(200, 800, 1);
  const StrategyPlan plan = PlanEnumeration(
      pattern, InputsFor(graph, 500, /*triangle=*/true,
                         /*counting_only=*/true));

  CountingSink sink;
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy("auto:500")
          .WithSink(&sink));
  EXPECT_EQ(result.resolved_spec.name, SpecNameFor(plan.recommended));
  EXPECT_EQ(result.instances, CountTriangles(graph));
  EXPECT_FALSE(result.plan.empty());
  // A sparse graph makes a multi-round pipeline the cheap plan, so this
  // exercise really does leave the one-round strategies.
  EXPECT_TRUE(plan.recommended == StrategyPlan::Strategy::kTwoRound ||
              plan.recommended == StrategyPlan::Strategy::kCensus);
}

TEST(AutoStrategy, NeverPicksCensusWhenTheSinkCollects) {
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = ErdosRenyi(200, 800, 1);
  const StrategyPlan plan = PlanEnumeration(
      pattern, InputsFor(graph, 500, /*triangle=*/true,
                         /*counting_only=*/false));
  EXPECT_NE(plan.recommended, StrategyPlan::Strategy::kCensus);

  CollectingSink sink;
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy("auto:500")
          .WithSink(&sink));
  EXPECT_EQ(result.resolved_spec.name, SpecNameFor(plan.recommended));
  EXPECT_NE(result.resolved_spec.name, "census");
  EXPECT_EQ(sink.assignments().size(), CountTriangles(graph));
}

TEST(AutoStrategy, FallsBackToOneRoundPlansOffTriangle) {
  const SampleGraph pattern = SampleGraph::Square();
  const Graph graph = TestGraph();
  const StrategyPlan plan = PlanEnumeration(
      pattern, InputsFor(graph, 126, /*triangle=*/false,
                         /*counting_only=*/true));
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph).WithStrategy("auto:126"));
  EXPECT_EQ(result.resolved_spec.name, SpecNameFor(plan.recommended));
  EXPECT_TRUE(result.resolved_spec.name == "bucket" ||
              result.resolved_spec.name == "variable-auto");
  EXPECT_EQ(result.instances, CountInstances(pattern, graph));
}

// ---------------------------------------------------------------------------
// Byte-identical equivalence with the legacy entry points
// ---------------------------------------------------------------------------

template <typename LegacyRun>
void ExpectEquivalent(const char* spec, const SampleGraph& pattern,
                      const Graph& graph, LegacyRun legacy) {
  CollectingSink legacy_sink;
  JobMetrics legacy_job;
  const MapReduceMetrics legacy_metrics = legacy(&legacy_sink, &legacy_job);

  CollectingSink sink;
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy(spec)
          .WithSink(&sink));
  EXPECT_TRUE(result.metrics == legacy_metrics) << spec;
  EXPECT_EQ(sink.assignments(), legacy_sink.assignments()) << spec;
  EXPECT_EQ(result.job.rounds.size(), legacy_job.rounds.size()) << spec;
  for (size_t i = 0; i < result.job.rounds.size(); ++i) {
    EXPECT_TRUE(result.job.rounds[i].metrics == legacy_job.rounds[i].metrics)
        << spec << " round " << i;
  }
}

TEST(StrategyRegistry, MatchesLegacyEntryPointsByteForByte) {
  const SampleGraph triangle = SampleGraph::Triangle();
  const Graph graph = TestGraph();
  const uint64_t seed = 1;
  const auto cqs = CqsForSample(triangle);

  ExpectEquivalent("bucket:6", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     return BucketOrientedEnumerate(
                         triangle, cqs, graph, 6, seed, sink,
                         ExecutionPolicy::Serial(), job);
                   });
  ExpectEquivalent("variable:2x2x2", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     return VariableOrientedEnumerate(
                         triangle, cqs, graph, {2, 2, 2}, seed, sink,
                         ExecutionPolicy::Serial(), job);
                   });
  ExpectEquivalent("partition:5", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     return PartitionTriangles(graph, 5, seed, sink,
                                               ExecutionPolicy::Serial(),
                                               job);
                   });
  ExpectEquivalent("multiway:3", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     return MultiwayJoinTriangles(graph, 3, seed, sink,
                                                  ExecutionPolicy::Serial(),
                                                  job);
                   });
  ExpectEquivalent("orderedbucket:6", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     return OrderedBucketTriangles(graph, 6, seed, sink,
                                                   ExecutionPolicy::Serial(),
                                                   job);
                   });
  ExpectEquivalent("tworound", triangle, graph,
                   [&](InstanceSink* sink, JobMetrics* job) {
                     const TwoRoundMetrics two_round = TwoRoundTriangles(
                         graph, NodeOrder::ByDegree(graph), sink,
                         ExecutionPolicy::Serial());
                     *job = two_round.job;
                     return two_round.round2;
                   });
}

TEST(StrategyRegistry, CensusMatchesLegacyPipeline) {
  const Graph graph = TestGraph();
  const TriangleCensusResult legacy =
      TriangleCensus(graph, NodeOrder::ByDegree(graph));
  const SampleGraph triangle = SampleGraph::Triangle();
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(triangle, graph).WithStrategy("census"));
  EXPECT_EQ(result.instances, legacy.total_triangles);
  EXPECT_EQ(result.per_node, legacy.per_node);
  ASSERT_EQ(result.job.rounds.size(), legacy.job.rounds.size());
  for (size_t i = 0; i < result.job.rounds.size(); ++i) {
    EXPECT_TRUE(result.job.rounds[i].metrics == legacy.job.rounds[i].metrics)
        << "round " << i;
  }
}

TEST(StrategyRegistry, LabeledAndDirectedMatchLegacyEntryPoints) {
  const Graph skeleton = TestGraph();

  const LabeledSampleGraph labeled_pattern(3,
                                           {{0, 1, 0}, {0, 2, 1}, {1, 2, 2}});
  const LabeledGraph labeled_graph = TestLabeledGraph(skeleton);
  CollectingSink legacy_labeled;
  JobMetrics legacy_labeled_job;
  const MapReduceMetrics labeled_metrics = LabeledBucketOrientedEnumerate(
      labeled_pattern, labeled_graph, 4, 1, &legacy_labeled,
      ExecutionPolicy::Serial(), &legacy_labeled_job);
  CollectingSink labeled_sink;
  const EnumerationResult labeled_result = StrategyRegistry::Global().Run(
      EnumerationQuery::Labeled(labeled_pattern, labeled_graph)
          .WithStrategy("labeled:4")
          .WithSink(&labeled_sink));
  EXPECT_TRUE(labeled_result.metrics == labeled_metrics);
  EXPECT_EQ(labeled_sink.assignments(), legacy_labeled.assignments());
  EXPECT_EQ(labeled_result.instances,
            EnumerateLabeledInstances(labeled_pattern, labeled_graph,
                                      nullptr, nullptr));

  const DirectedSampleGraph directed_pattern(3, {{0, 1}, {0, 2}, {1, 2}});
  const DirectedGraph directed_graph = TestDirectedGraph(skeleton);
  CollectingSink legacy_directed;
  const MapReduceMetrics directed_metrics = DirectedBucketOrientedEnumerate(
      directed_pattern, directed_graph, 4, 1, &legacy_directed);
  CollectingSink directed_sink;
  const EnumerationResult directed_result = StrategyRegistry::Global().Run(
      EnumerationQuery::Directed(directed_pattern, directed_graph)
          .WithStrategy("directed:4")
          .WithSink(&directed_sink));
  EXPECT_TRUE(directed_result.metrics == directed_metrics);
  EXPECT_EQ(directed_sink.assignments(), legacy_directed.assignments());
  EXPECT_EQ(directed_result.instances,
            EnumerateDirectedInstances(directed_pattern, directed_graph,
                                       nullptr, nullptr));
}

// ---------------------------------------------------------------------------
// Registration and resolution mechanics
// ---------------------------------------------------------------------------

class FakeStrategy : public Strategy {
 public:
  explicit FakeStrategy(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }
  const StrategyCapabilities& capabilities() const override { return caps_; }
  const std::vector<TunableDecl>& tunables() const override {
    return tunables_;
  }
  EnumerationResult Run(const EnumerationQuery&) const override {
    EnumerationResult result;
    result.instances = 42;
    return result;
  }

 private:
  std::string name_;
  std::string description_ = "test double";
  StrategyCapabilities caps_ = [] {
    StrategyCapabilities caps;
    caps.undirected = true;
    return caps;
  }();
  std::vector<TunableDecl> tunables_;
};

TEST(StrategyRegistry, PluginRegistrationAndDuplicateRejection) {
  StrategyRegistry registry;
  RegisterBuiltinStrategies(registry);
  EXPECT_THROW(registry.Register(std::make_unique<FakeStrategy>("bucket")),
               std::invalid_argument);

  registry.Register(std::make_unique<FakeStrategy>("fake"));
  EXPECT_EQ(registry.Parse("fake").ToSpec(), "fake");
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = ErdosRenyi(10, 20, 1);
  const EnumerationResult result = registry.Run(
      EnumerationQuery::Undirected(pattern, graph).WithSpec(
          registry.Parse("fake")));
  EXPECT_EQ(result.instances, 42u);
  // The process-wide registry is untouched by the private one.
  EXPECT_EQ(StrategyRegistry::Global().Find("fake"), nullptr);
}

TEST(StrategyRegistry, VariableWithEmptySharesUsesOptimizer) {
  const SampleGraph pattern = SampleGraph::Square();
  const Graph graph = TestGraph();
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph).WithStrategy("variable"));
  EXPECT_EQ(result.instances, CountInstances(pattern, graph));
  // The resolved spec reports the shares that actually ran.
  ASSERT_EQ(result.resolved_spec.values.size(), 1u);
  const std::vector<int>& shares = result.resolved_spec.values[0].list_value;
  ASSERT_EQ(shares.size(), 4u);
  for (const int share : shares) EXPECT_GE(share, 1);
}

TEST(StrategyRegistry, CensusFillsCountingSinksViaEmitCount) {
  // The census never emits instances, but a sink that declares itself a
  // pure counter still receives the total — so a CountingSink attached
  // directly or through auto:<k> never reads a silent 0.
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = ErdosRenyi(200, 800, 1);
  const uint64_t expected = CountTriangles(graph);

  CountingSink direct;
  StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy("census")
          .WithSink(&direct));
  EXPECT_EQ(direct.count(), expected);

  CountingSink via_auto;
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy("auto:500")
          .WithSink(&via_auto));
  EXPECT_EQ(via_auto.count(), expected) << "auto resolved to "
                                        << result.resolved_spec.ToSpec();
}

TEST(PolicySpec, ChecksEveryKnobAndRejectsTrailingColon) {
  const ExecutionPolicy policy =
      PolicyFromSpecs("4", "partition:16", "auto", "off");
  EXPECT_EQ(policy.num_threads, 4u);
  EXPECT_EQ(policy.EffectivePartitions(), 16u);
  EXPECT_FALSE(policy.combine);
  EXPECT_EQ(PolicyFromSpecs("2", "partition:1", "auto", "on")
                .EffectivePartitions(),
            1u);
  // The process backend gives every reduce worker at least one partition,
  // so it runs no fewer partitions than it has configured workers.
  const ExecutionPolicy process =
      PolicyFromSpecs("1", "partition:1", "auto", "on", "0", "process:3");
  EXPECT_EQ(process.EffectivePartitions(), 3u);
  EXPECT_NE(DescribePolicy(process).find("3 partitions"), std::string::npos)
      << DescribePolicy(process);

  // The sort shuffle and the counting / sort grouping modes were removed.
  EXPECT_THROW(PolicyFromSpecs("1", "sort", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "counting", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "sort", "on"),
               std::invalid_argument);
  try {
    PolicyFromSpecs("1", "sort", "auto", "on");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }
  try {
    PolicyFromSpecs("1", "partition", "counting", "on");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }

  // The description names what runs: threads, partitions, combine, and
  // (when set) budget and backend — single-threaded rounds included.
  EXPECT_EQ(DescribePolicy(ExecutionPolicy::Serial()),
            "1 thread, 4 partitions, combine on");
  EXPECT_EQ(DescribePolicy(ExecutionPolicy::WithThreads(4).WithPartitions(16)),
            "4 threads, 16 partitions, combine on");

  EXPECT_THROW(PolicyFromSpecs("x", "partition", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("-1", "partition", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition:", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition:0", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition:x", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "bogus", "auto", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "bogus", "on"),
               std::invalid_argument);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "bogus"),
               std::invalid_argument);

  // Backend spec: "thread" (default), "process", "process:N" — anything
  // else, a trailing colon, garbage, or an absurd worker count throws.
  const ExecutionPolicy process_policy =
      PolicyFromSpecs("2", "partition", "auto", "on", "0", "process:4");
  EXPECT_EQ(process_policy.backend, BackendMode::kProcess);
  EXPECT_EQ(process_policy.process_workers, 4u);
  const ExecutionPolicy process_default =
      PolicyFromSpecs("3", "partition", "auto", "on", "0", "process");
  EXPECT_EQ(process_default.backend, BackendMode::kProcess);
  EXPECT_EQ(process_default.process_workers, 0u);  // 0 = num_threads
  EXPECT_EQ(process_default.EffectiveProcessWorkers(100), 3u);
  EXPECT_EQ(PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread")
                .backend,
            BackendMode::kThread);
  EXPECT_THROW(PolicyFromSpecs("1", "partition", "auto", "on", "0", "bogus"),
               std::invalid_argument);
  EXPECT_THROW(
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:"),
      std::invalid_argument);
  EXPECT_THROW(
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:0"),
      std::invalid_argument);
  EXPECT_THROW(
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:x"),
      std::invalid_argument);
  EXPECT_THROW(
      PolicyFromSpecs("1", "partition", "auto", "on", "0", "process:99999"),
      std::invalid_argument);

  EXPECT_NE(DescribePolicy(process_policy).find("process backend (4 workers)"),
            std::string::npos);
  EXPECT_EQ(DescribePolicy(ExecutionPolicy::Serial()).find("process"),
            std::string::npos);
}

}  // namespace
}  // namespace smr
