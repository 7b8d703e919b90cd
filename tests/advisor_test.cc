#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/plan_advisor.h"
#include "core/strategy.h"
#include "core/two_round_triangles.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "serial/sampled_triangles.h"
#include "serial/triangles.h"
#include "shares/replication_formulas.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

TEST(PlanAdvisor, BucketCountFitsBudget) {
  const StrategyPlan plan = PlanEnumeration(SampleGraph::Triangle(), 220);
  // C(b+2,3) <= 220 -> b = 10 (Fig. 2's ordered-bucket row).
  EXPECT_EQ(plan.buckets, 10);
  EXPECT_DOUBLE_EQ(plan.bucket_cost_per_edge, 10.0);
  EXPECT_EQ(plan.num_cqs, 1u);
}

TEST(PlanAdvisor, BucketCountMatchesTheLinearScan) {
  // The bisection picks the same b as a linear scan from b = 1, for every
  // budget small enough that Binomial stays exact.
  for (int p = 2; p <= 6; ++p) {
    for (const double k : {0.5, 1.0, 2.0, 9.9, 10.0, 126.0, 220.0, 256.0,
                           500.0, 1000.0, 1e6, 1e9}) {
      int expected = 1;
      while (Binomial(expected + p, p) <= static_cast<uint64_t>(k)) {
        ++expected;
      }
      EXPECT_EQ(BucketCountForBudget(k, p), expected) << "p=" << p
                                                       << " k=" << k;
    }
  }
}

TEST(PlanAdvisor, BudgetBeyondTheKeySpaceFailsLoudly) {
  const double two_to_64 = 18446744073709551616.0;
  for (const double k : {1e30, two_to_64,
                         std::numeric_limits<double>::infinity(),
                         std::nan("")}) {
    EXPECT_THROW(BucketCountForBudget(k, 4), std::invalid_argument) << k;
    EXPECT_THROW(PlanEnumeration(SampleGraph::Square(), k),
                 std::invalid_argument)
        << k;
  }
  // Just below 2^64 still resolves, to the largest b whose reducer count
  // fits (capped at INT_MAX, which the edge pattern reaches).
  const double below = std::nextafter(two_to_64, 0.0);
  const uint64_t budget = static_cast<uint64_t>(below);
  EXPECT_EQ(BucketCountForBudget(below, 2), std::numeric_limits<int>::max());
  for (const int p : {3, 4, 6}) {
    const int64_t b = BucketCountForBudget(below, p);
    EXPECT_TRUE(BinomialAtMost(b + p - 1, p, budget)) << "p=" << p;
    EXPECT_FALSE(BinomialAtMost(b + p, p, budget)) << "p=" << p;
  }
  // auto:<k> reports the bad budget instead of running bucket:1.
  const SampleGraph square = SampleGraph::Square();
  const Graph g = ErdosRenyi(40, 120, 1);
  EXPECT_THROW(StrategyRegistry::Global().Run(
                   EnumerationQuery::Undirected(square, g).WithStrategy(
                       "auto:1e30")),
               std::invalid_argument);
}

TEST(PlanAdvisor, TrianglePrefersBucketOriented) {
  // For regular patterns with a single CQ the bucket-oriented scheme's
  // C(b+p-3, p-2) beats the b^p-reducer variable-oriented grid at equal k.
  const StrategyPlan plan = PlanEnumeration(SampleGraph::Triangle(), 1000);
  EXPECT_EQ(plan.recommended, StrategyPlan::Strategy::kBucketOriented);
  EXPECT_LE(plan.bucket_cost_per_edge, plan.variable_cost_per_edge);
}

TEST(PlanAdvisor, PredictionsMatchMeasurement) {
  const SampleGraph pattern = SampleGraph::Square();
  const double k = 126;  // C(6+3, 4) = 126 -> b = 6
  const StrategyPlan plan = PlanEnumeration(pattern, k);
  const Graph g = ErdosRenyi(60, 300, 3);
  const auto metrics =
      StrategyRegistry::Global()
          .Run(EnumerationQuery::Undirected(pattern, g)
                   .WithSpec({"bucket", {TunableValue::Int(plan.buckets)}}))
          .metrics;
  EXPECT_DOUBLE_EQ(metrics.ReplicationRate(), plan.bucket_cost_per_edge);
}

TEST(PlanAdvisor, ToStringMentionsRecommendation) {
  const StrategyPlan plan = PlanEnumeration(SampleGraph::Lollipop(), 500);
  EXPECT_NE(plan.ToString().find("recommended="), std::string::npos);
  EXPECT_NE(plan.ToString().find("cqs=6"), std::string::npos);
}

TEST(PlanAdvisor, TwoRoundPredictionMatchesMeasurement) {
  // With the wedge statistic supplied, the two-round prediction is exact:
  // round 1 ships one pair per edge, round 2 one per 2-path plus one
  // closing-edge marker per edge.
  const Graph g = ErdosRenyi(200, 800, 1);
  PlanInputs inputs;
  inputs.k = 500;
  inputs.nodes = g.num_nodes();
  inputs.edges = g.num_edges();
  inputs.wedges = CountOrderedWedges(g);
  const StrategyPlan plan =
      PlanEnumeration(SampleGraph::Triangle(), inputs);
  ASSERT_GT(plan.two_round_cost_per_edge, 0);

  const TwoRoundMetrics measured =
      TwoRoundTriangles(g, NodeOrder::ByDegree(g), nullptr);
  EXPECT_DOUBLE_EQ(plan.two_round_cost_per_edge,
                   static_cast<double>(measured.TotalKeyValuePairs()) /
                       static_cast<double>(g.num_edges()));
}

TEST(PlanAdvisor, CensusPricedOnlyForCountingOnlyQueries) {
  const Graph g = ErdosRenyi(200, 800, 1);
  PlanInputs inputs;
  inputs.k = 500;
  inputs.nodes = g.num_nodes();
  inputs.edges = g.num_edges();
  inputs.wedges = CountOrderedWedges(g);

  inputs.counting_only = false;
  const StrategyPlan emitting =
      PlanEnumeration(SampleGraph::Triangle(), inputs);
  EXPECT_EQ(emitting.census_cost_per_edge, 0);
  EXPECT_NE(emitting.recommended, StrategyPlan::Strategy::kCensus);

  inputs.counting_only = true;
  const StrategyPlan counting =
      PlanEnumeration(SampleGraph::Triangle(), inputs);
  EXPECT_GT(counting.census_cost_per_edge,
            counting.two_round_cost_per_edge);
}

TEST(PlanAdvisor, MultiRoundPlansNeedTriangleAndStatistics) {
  // Without data statistics (the legacy two-argument overload) or off the
  // triangle pattern, the multi-round predictions stay at 0 and the
  // recommendation is one of the one-round strategies.
  const StrategyPlan no_stats =
      PlanEnumeration(SampleGraph::Triangle(), 500);
  EXPECT_EQ(no_stats.two_round_cost_per_edge, 0);
  EXPECT_EQ(no_stats.census_cost_per_edge, 0);

  PlanInputs inputs;
  inputs.k = 126;
  inputs.nodes = 200;
  inputs.edges = 800;
  inputs.wedges = 5000;
  inputs.counting_only = true;
  const StrategyPlan square = PlanEnumeration(SampleGraph::Square(), inputs);
  EXPECT_EQ(square.two_round_cost_per_edge, 0);
  EXPECT_TRUE(square.recommended ==
                  StrategyPlan::Strategy::kBucketOriented ||
              square.recommended ==
                  StrategyPlan::Strategy::kVariableOriented);
}

TEST(PlanAdvisor, RecommendedSpecParsesAgainstTheRegistry) {
  const Graph g = ErdosRenyi(200, 800, 1);
  PlanInputs inputs;
  inputs.k = 500;
  inputs.nodes = g.num_nodes();
  inputs.edges = g.num_edges();
  inputs.wedges = CountOrderedWedges(g);
  inputs.counting_only = true;
  const StrategyPlan plan =
      PlanEnumeration(SampleGraph::Triangle(), inputs);
  // Whatever the advisor recommends is directly runnable by name.
  const StrategySpec spec = ParseStrategySpec(plan.RecommendedSpec());
  EXPECT_FALSE(spec.name.empty());

  const StrategyPlan one_round = PlanEnumeration(SampleGraph::Square(), 126);
  EXPECT_FALSE(
      ParseStrategySpec(one_round.RecommendedSpec()).name.empty());
}

TEST(PlanAdvisor, ToStringMentionsMultiRoundCostsWhenPriced) {
  PlanInputs inputs;
  inputs.k = 500;
  inputs.nodes = 100;
  inputs.edges = 400;
  inputs.wedges = 2000;
  inputs.counting_only = true;
  const StrategyPlan plan =
      PlanEnumeration(SampleGraph::Triangle(), inputs);
  EXPECT_NE(plan.ToString().find("two-round(cost/edge="), std::string::npos);
  EXPECT_NE(plan.ToString().find("census(cost/edge="), std::string::npos);
}

// RAII guard: calibration is process-global state, so every test that
// touches it must leave it empty for the rest of the suite.
struct CalibrationReset {
  ~CalibrationReset() { CostCalibration::Global().Clear(); }
};

TEST(CostCalibration, MeasuredBytesOverrideTheModeledRecordSize) {
  const CalibrationReset reset;
  CostCalibration& calibration = CostCalibration::Global();
  EXPECT_FALSE(calibration.BytesPerPair("bucket").has_value());
  // Uncalibrated: the modeled 16-byte record, same factor for everyone.
  EXPECT_DOUBLE_EQ(calibration.BytesPerEdge("bucket", 10.0),
                   10.0 * CostCalibration::kModeledBytesPerPair);

  calibration.Record("bucket", 11.5);
  ASSERT_TRUE(calibration.BytesPerPair("bucket").has_value());
  EXPECT_DOUBLE_EQ(*calibration.BytesPerPair("bucket"), 11.5);
  EXPECT_DOUBLE_EQ(calibration.BytesPerEdge("bucket", 10.0), 115.0);
  // Nonpositive measurements are nonsense and ignored.
  calibration.Record("bucket", 0.0);
  EXPECT_DOUBLE_EQ(*calibration.BytesPerPair("bucket"), 11.5);
}

TEST(CostCalibration, ObserveFoldsWireBytesOverLogicalPairs) {
  const CalibrationReset reset;
  CostCalibration& calibration = CostCalibration::Global();

  JobMetrics job;
  JobRoundMetrics round;
  round.name = "r1";
  round.metrics.key_value_pairs = 1000;
  round.metrics.shuffle.map_bytes_on_wire = 12000;
  job.rounds.push_back(round);
  round.name = "r2";
  round.metrics.key_value_pairs = 500;
  round.metrics.shuffle.map_bytes_on_wire = 6000;
  job.rounds.push_back(round);
  calibration.Observe("tworound", job);
  ASSERT_TRUE(calibration.BytesPerPair("tworound").has_value());
  EXPECT_DOUBLE_EQ(*calibration.BytesPerPair("tworound"), 12.0);

  // A thread-backend job (nothing on the wire) calibrates nothing.
  JobMetrics unmeasured;
  unmeasured.rounds.push_back({"r", MapReduceMetrics{}});
  unmeasured.rounds[0].metrics.key_value_pairs = 100;
  calibration.Observe("bucket", unmeasured);
  EXPECT_FALSE(calibration.BytesPerPair("bucket").has_value());
}

TEST(CostCalibration, FlipsTheAutoStrategysPick) {
  const CalibrationReset reset;
  const SampleGraph pattern = SampleGraph::Triangle();
  const Graph graph = ErdosRenyi(200, 800, 5);

  const auto resolved_by_auto = [&]() {
    CountingSink sink;
    const EnumerationResult result = StrategyRegistry::Global().Run(
        EnumerationQuery::Undirected(pattern, graph)
            .WithStrategy("auto:500")
            .WithSink(&sink));
    return result.resolved_spec.name;
  };

  const std::string baseline = resolved_by_auto();
  // A measured per-pair cost 1000x the modeled record makes the baseline
  // winner the most expensive candidate — auto must pick something else.
  CostCalibration::Global().Record(
      baseline, 1000.0 * CostCalibration::kModeledBytesPerPair);
  const std::string recalibrated = resolved_by_auto();
  EXPECT_NE(recalibrated, baseline);

  // Clearing the calibration restores the closed-form pick.
  CostCalibration::Global().Clear();
  EXPECT_EQ(resolved_by_auto(), baseline);
}

TEST(SampledTriangles, FullProbabilityIsExact) {
  const Graph g = ErdosRenyi(100, 500, 2);
  const auto estimate = EstimateTriangles(g, 1.0, 1);
  EXPECT_DOUBLE_EQ(estimate.estimate,
                   static_cast<double>(CountTriangles(g)));
  EXPECT_EQ(estimate.sampled_edges, g.num_edges());
}

TEST(SampledTriangles, EstimateIsClose) {
  // Dense graph with many triangles: p = 0.5 estimate within 30%.
  const Graph g = ErdosRenyi(120, 3000, 7);
  const double exact = static_cast<double>(CountTriangles(g));
  // Average several seeds to keep the test robust (the estimator is
  // unbiased; averaging reduces variance).
  double sum = 0;
  const int runs = 8;
  for (int seed = 0; seed < runs; ++seed) {
    sum += EstimateTriangles(g, 0.5, seed).estimate;
  }
  EXPECT_NEAR(sum / runs, exact, 0.3 * exact);
}

TEST(SampledTriangles, RejectsBadProbability) {
  const Graph g = ErdosRenyi(10, 20, 1);
  EXPECT_THROW(EstimateTriangles(g, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(EstimateTriangles(g, 1.5, 1), std::invalid_argument);
}

TEST(SampledTriangles, SamplingShrinksWork) {
  const Graph g = ErdosRenyi(500, 5000, 9);
  const auto estimate = EstimateTriangles(g, 0.25, 3);
  EXPECT_LT(estimate.sampled_edges, g.num_edges() / 2);
}

}  // namespace
}  // namespace smr
