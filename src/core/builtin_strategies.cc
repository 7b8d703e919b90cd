// The stock Strategy adapters: every enumeration entry point this library
// grew — bucket- and variable-oriented processing, the serial reference,
// the three Section 2 triangle algorithms, the multi-round pipelines, and
// the labeled/directed extensions — registered under stable names so that
// CLIs, tests, and benches dispatch by spec string instead of by function
// call. To add a strategy: subclass Strategy (BuiltinStrategy spares the
// boilerplate) and StrategyRegistry::Global().Register(...) it.

#include <cmath>
#include <memory>
#include <optional>
#include <utility>

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
#include "graph/graph.h"
#include "graph/node_order.h"
#include "graph/sample_graph.h"
#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "serial/matcher.h"
#include "shares/cost_expression.h"
#include "shares/replication_formulas.h"
#include "shares/share_optimizer.h"

namespace smr {
namespace {

/// Reducer budget the `variable` strategy's optimizer uses when the spec
/// leaves the share vector empty ("variable" bare).
constexpr double kDefaultBudget = 256;

TunableDecl IntTunable(std::string name, std::string doc, int64_t def,
                       int64_t min) {
  TunableDecl decl;
  decl.name = std::move(name);
  decl.doc = std::move(doc);
  decl.default_value = TunableValue::Int(def);
  decl.min_int = min;
  return decl;
}

TunableDecl DoubleTunable(std::string name, std::string doc, double def,
                          double min) {
  TunableDecl decl;
  decl.name = std::move(name);
  decl.doc = std::move(doc);
  decl.default_value = TunableValue::Double(def);
  decl.min_double = min;
  return decl;
}

TunableDecl ListTunable(std::string name, std::string doc) {
  TunableDecl decl;
  decl.name = std::move(name);
  decl.doc = std::move(doc);
  decl.default_value = TunableValue::IntList({});
  return decl;
}

/// Boilerplate holder: name/description/capabilities/tunables as plain
/// constructor data, so concrete strategies only write Run (and, when they
/// have a closed form, EstimateCostPerEdge).
class BuiltinStrategy : public Strategy {
 public:
  BuiltinStrategy(std::string name, std::string description,
                  StrategyCapabilities capabilities,
                  std::vector<TunableDecl> tunables)
      : name_(std::move(name)),
        description_(std::move(description)),
        capabilities_(capabilities),
        tunables_(std::move(tunables)) {}

  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }
  const StrategyCapabilities& capabilities() const override {
    return capabilities_;
  }
  const std::vector<TunableDecl>& tunables() const override {
    return tunables_;
  }

 private:
  std::string name_;
  std::string description_;
  StrategyCapabilities capabilities_;
  std::vector<TunableDecl> tunables_;
};

StrategyCapabilities UndirectedCaps() {
  StrategyCapabilities caps;
  caps.undirected = true;
  return caps;
}

StrategyCapabilities TriangleCaps() {
  StrategyCapabilities caps;
  caps.undirected = true;
  caps.triangle_only = true;
  return caps;
}

EnumerationResult SingleRoundResult(MapReduceMetrics metrics,
                                    JobMetrics job) {
  EnumerationResult result;
  result.instances = metrics.outputs;
  result.has_metrics = true;
  result.metrics = metrics;
  result.job = std::move(job);
  return result;
}

// --------------------------------------------------------------------------
// Generic one-round strategies (any pattern)
// --------------------------------------------------------------------------

class SerialStrategy : public BuiltinStrategy {
 public:
  SerialStrategy()
      : BuiltinStrategy(
            "serial",
            "reference backtracking enumeration (ground truth; no engine)",
            [] {
              StrategyCapabilities caps;
              caps.undirected = true;
              caps.labeled = true;
              caps.directed = true;
              return caps;
            }(),
            {}) {}

  EnumerationResult Run(const EnumerationQuery& query) const override {
    EnumerationResult result;
    if (query.graph != nullptr) {
      result.instances =
          EnumerateInstances(*query.pattern, *query.graph, query.sink,
                             nullptr);
    } else if (query.labeled_graph != nullptr) {
      result.instances =
          EnumerateLabeledInstances(*query.labeled_pattern,
                                    *query.labeled_graph, query.sink,
                                    nullptr);
    } else {
      result.instances =
          EnumerateDirectedInstances(*query.directed_pattern,
                                     *query.directed_graph, query.sink,
                                     nullptr);
    }
    return result;
  }
};

class BucketStrategy : public BuiltinStrategy {
 public:
  BucketStrategy()
      : BuiltinStrategy(
            "bucket",
            "bucket-oriented processing (Sec. 4.5): one shared hash, "
            "C(b+p-1,p) reducers, C(b+p-3,p-2) replication per edge",
            UndirectedCaps(),
            {IntTunable("b", "buckets per variable", 8, 1)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return static_cast<double>(BucketOrientedEdgeReplication(
        static_cast<int>(query.spec.values[0].int_value),
        query.pattern->num_vars()));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    const auto cqs = CqsForSample(*query.pattern);
    JobMetrics job;
    const MapReduceMetrics metrics = BucketOrientedEnumerate(
        *query.pattern, cqs, *query.graph,
        static_cast<int>(query.spec.values[0].int_value), query.seed,
        query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

class VariableStrategy : public BuiltinStrategy {
 public:
  VariableStrategy()
      : BuiltinStrategy(
            "variable",
            "variable-oriented processing (Sec. 4.3) with explicit "
            "per-variable shares",
            UndirectedCaps(),
            {ListTunable("shares",
                         "one share per variable, s1xs2x...xsp; empty = "
                         "optimizer shares at k=256")}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    const CostExpression expression =
        CostExpression::ForCqSet(CqsForSample(*query.pattern));
    const std::vector<int>& shares = query.spec.values[0].list_value;
    if (shares.empty()) {
      return OptimizeShares(expression, kDefaultBudget).cost_per_edge;
    }
    const std::vector<double> as_double(shares.begin(), shares.end());
    return expression.CostPerEdge(as_double);
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    const auto cqs = CqsForSample(*query.pattern);
    std::vector<int> shares = query.spec.values[0].list_value;
    if (shares.empty()) {
      shares = RoundShares(
          OptimizeShares(CostExpression::ForCqSet(cqs), kDefaultBudget)
              .shares);
    }
    JobMetrics job;
    const MapReduceMetrics metrics =
        VariableOrientedEnumerate(*query.pattern, cqs, *query.graph, shares,
                                  query.seed, query.sink, query.policy, &job);
    EnumerationResult result = SingleRoundResult(metrics, std::move(job));
    // Report the shares that actually ran, not the empty placeholder.
    result.resolved_spec = query.spec;
    result.resolved_spec.values[0] = TunableValue::IntList(std::move(shares));
    return result;
  }
};

class VariableAutoStrategy : public BuiltinStrategy {
 public:
  VariableAutoStrategy()
      : BuiltinStrategy(
            "variable-auto",
            "variable-oriented processing with shares from the Sec. 4.1 "
            "optimizer at reducer budget k",
            UndirectedCaps(),
            {DoubleTunable("k", "reducer budget", 256, 1)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return OptimizeShares(
               CostExpression::ForCqSet(CqsForSample(*query.pattern)),
               query.spec.values[0].double_value)
        .cost_per_edge;
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    const auto cqs = CqsForSample(*query.pattern);
    const ShareSolution solution =
        OptimizeShares(CostExpression::ForCqSet(cqs),
                       query.spec.values[0].double_value);
    JobMetrics job;
    const MapReduceMetrics metrics = VariableOrientedEnumerate(
        *query.pattern, cqs, *query.graph, RoundShares(solution.shares),
        query.seed, query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

// --------------------------------------------------------------------------
// Triangle-only strategies (Sec. 2 algorithms and the pipelines)
// --------------------------------------------------------------------------

class PartitionStrategy : public BuiltinStrategy {
 public:
  PartitionStrategy()
      : BuiltinStrategy(
            "partition",
            "Suri-Vassilvitskii Partition (Sec. 2.1): C(b,3) reducers, "
            "~3b/2 replication, canonical-triple dedup",
            TriangleCaps(), {IntTunable("b", "node groups", 8, 3)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return PartitionTriangleReplication(
        static_cast<int>(query.spec.values[0].int_value));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    JobMetrics job;
    const MapReduceMetrics metrics = PartitionTriangles(
        *query.graph, static_cast<int>(query.spec.values[0].int_value),
        query.seed, query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

class MultiwayStrategy : public BuiltinStrategy {
 public:
  MultiwayStrategy()
      : BuiltinStrategy(
            "multiway",
            "multiway join E|><|E|><|E (Sec. 2.2): b^3 reducers, 3b-2 "
            "replication per edge",
            TriangleCaps(), {IntTunable("b", "buckets per variable", 4, 1)}) {
  }

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return MultiwayTriangleReplication(
        static_cast<int>(query.spec.values[0].int_value));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    JobMetrics job;
    const MapReduceMetrics metrics = MultiwayJoinTriangles(
        *query.graph, static_cast<int>(query.spec.values[0].int_value),
        query.seed, query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

class OrderedBucketStrategy : public BuiltinStrategy {
 public:
  OrderedBucketStrategy()
      : BuiltinStrategy(
            "orderedbucket",
            "ordered buckets (Sec. 2.3): C(b+2,3) reducers, exactly b "
            "replication per edge",
            TriangleCaps(), {IntTunable("b", "buckets", 8, 1)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return OrderedBucketTriangleReplication(
        static_cast<int>(query.spec.values[0].int_value));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    JobMetrics job;
    const MapReduceMetrics metrics = OrderedBucketTriangles(
        *query.graph, static_cast<int>(query.spec.values[0].int_value),
        query.seed, query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

class TwoRoundStrategy : public BuiltinStrategy {
 public:
  TwoRoundStrategy()
      : BuiltinStrategy(
            "tworound",
            "two-round MR node-iterator [19]: 2-paths then closing-edge "
            "join; cheap on sparse graphs, one extra barrier",
            TriangleCaps(), {}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return TwoRoundCostPerEdge(query.graph->num_edges(),
                               CountOrderedWedges(*query.graph));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    const TwoRoundMetrics two_round =
        TwoRoundTriangles(*query.graph, NodeOrder::ByDegree(*query.graph),
                          query.sink, query.policy);
    EnumerationResult result;
    result.instances = two_round.round2.outputs;
    result.has_metrics = true;
    result.metrics = two_round.round2;
    result.job = two_round.job;
    return result;
  }
};

class CensusStrategy : public BuiltinStrategy {
 public:
  CensusStrategy()
      : BuiltinStrategy(
            "census",
            "three-round per-node triangle counting with a map-side SUM "
            "combiner; counting-only (never emits instances)",
            [] {
              StrategyCapabilities caps = TriangleCaps();
              caps.emits_instances = false;
              return caps;
            }(),
            {}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return CensusCostPerEdge(query.graph->num_nodes(),
                             query.graph->num_edges(),
                             CountOrderedWedges(*query.graph));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    TriangleCensusResult census = TriangleCensus(
        *query.graph, NodeOrder::ByDegree(*query.graph), query.policy);
    EnumerationResult result;
    result.instances = census.total_triangles;
    result.has_metrics = true;
    result.metrics = census.job.rounds.back().metrics;
    result.job = std::move(census.job);
    result.per_node = std::move(census.per_node);
    // Counting-only means Emit is never called — but a sink that declares
    // itself a pure counter still gets the total, so callers that attach
    // a CountingSink (directly or via auto:<k>) never read a silent 0.
    if (query.sink != nullptr && query.sink->CountsOnly()) {
      query.sink->EmitCount(census.total_triangles);
    }
    return result;
  }
};

// --------------------------------------------------------------------------
// Labeled / directed extensions (Sec. 8)
// --------------------------------------------------------------------------

class LabeledStrategy : public BuiltinStrategy {
 public:
  LabeledStrategy()
      : BuiltinStrategy(
            "labeled",
            "bucket-oriented enumeration of a labeled pattern (Sec. 8): "
            "labels shipped with the edges, checked at the reducers",
            [] {
              StrategyCapabilities caps;
              caps.labeled = true;
              return caps;
            }(),
            {IntTunable("b", "buckets per variable", 8, 1)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return static_cast<double>(BucketOrientedEdgeReplication(
        static_cast<int>(query.spec.values[0].int_value),
        query.labeled_pattern->num_vars()));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    JobMetrics job;
    const MapReduceMetrics metrics = LabeledBucketOrientedEnumerate(
        *query.labeled_pattern, *query.labeled_graph,
        static_cast<int>(query.spec.values[0].int_value), query.seed,
        query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

class DirectedStrategy : public BuiltinStrategy {
 public:
  DirectedStrategy()
      : BuiltinStrategy(
            "directed",
            "bucket-oriented enumeration of a directed pattern (Sec. 8): "
            "arcs replace the node-order canonicalization",
            [] {
              StrategyCapabilities caps;
              caps.directed = true;
              return caps;
            }(),
            {IntTunable("b", "buckets per variable", 8, 1)}) {}

  std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const override {
    return static_cast<double>(BucketOrientedEdgeReplication(
        static_cast<int>(query.spec.values[0].int_value),
        query.directed_pattern->num_vars()));
  }

  EnumerationResult Run(const EnumerationQuery& query) const override {
    JobMetrics job;
    const MapReduceMetrics metrics = DirectedBucketOrientedEnumerate(
        *query.directed_pattern, *query.directed_graph,
        static_cast<int>(query.spec.values[0].int_value), query.seed,
        query.sink, query.policy, &job);
    return SingleRoundResult(metrics, std::move(job));
  }
};

// --------------------------------------------------------------------------
// auto:<k> — advisor-driven selection
// --------------------------------------------------------------------------

class AutoStrategy : public BuiltinStrategy {
 public:
  AutoStrategy()
      : BuiltinStrategy(
            "auto",
            "PlanAdvisor selection at reducer budget k: compares bucket, "
            "variable-auto, and (triangle patterns) the tworound/census "
            "pipelines, then runs the cheapest eligible plan",
            UndirectedCaps(),
            {DoubleTunable("k", "reducer budget", 256, 1)}) {}

  EnumerationResult Run(const EnumerationQuery& query) const override {
    PlanInputs inputs;
    inputs.k = query.spec.values[0].double_value;
    inputs.nodes = query.graph->num_nodes();
    inputs.edges = query.graph->num_edges();
    const bool triangle = query.pattern->num_vars() == 3 &&
                          query.pattern->num_edges() == 3;
    const bool multi_round = triangle && inputs.edges > 0;
    if (multi_round) {
      inputs.wedges = CountOrderedWedges(*query.graph);
    }
    inputs.counting_only =
        query.sink == nullptr || query.sink->CountsOnly();
    const StrategyPlan plan = PlanEnumeration(*query.pattern, inputs);

    // Candidate specs in the advisor's preference order (ties keep the
    // earlier one). The selection itself flows through each candidate's
    // EstimateCostPerEdge hook — the same shared closed forms the plan
    // text prints, so the pick always matches plan.recommended.
    std::vector<StrategySpec> candidates;
    {
      StrategySpec bucket;
      bucket.name = "bucket";
      bucket.values = {TunableValue::Int(plan.buckets)};
      candidates.push_back(std::move(bucket));
      StrategySpec variable;
      variable.name = "variable-auto";
      variable.values = {TunableValue::Double(inputs.k)};
      candidates.push_back(std::move(variable));
      if (multi_round) {
        candidates.push_back(StrategySpec{"tworound", {}});
        // The census never emits instances, so it is eligible only when
        // the query just counts.
        if (inputs.counting_only) {
          candidates.push_back(StrategySpec{"census", {}});
        }
      }
    }

    const StrategyRegistry& registry = StrategyRegistry::Global();
    const CostCalibration& calibration = CostCalibration::Global();
    EnumerationQuery delegated = query;
    delegated.spec = StrategySpec{};  // filled by the cheapest candidate
    double best_cost = 0;
    for (StrategySpec& candidate : candidates) {
      const Strategy& strategy = registry.Require(candidate.name);
      EnumerationQuery probe = query;
      probe.spec = strategy.ResolveSpec(std::move(candidate));
      const std::optional<double> pairs = strategy.EstimateCostPerEdge(probe);
      if (!pairs) continue;
      // Price the candidate in bytes per edge: closed-form pairs per edge
      // times the strategy's measured bytes per pair when a process-backend
      // run calibrated it, the modeled record size otherwise. With no
      // calibration recorded every candidate scales identically, so the
      // ordering is exactly the classic pair comparison.
      const double cost = calibration.BytesPerEdge(probe.spec.name, *pairs);
      if (delegated.spec.name.empty() || cost < best_cost) {
        best_cost = cost;
        delegated.spec = std::move(probe.spec);
      }
    }

    EnumerationResult result = registry.Run(delegated);
    result.plan = plan.ToString();
    return result;
  }
};

}  // namespace

void RegisterBuiltinStrategies(StrategyRegistry& registry) {
  registry.Register(std::make_unique<SerialStrategy>());
  registry.Register(std::make_unique<BucketStrategy>());
  registry.Register(std::make_unique<VariableStrategy>());
  registry.Register(std::make_unique<VariableAutoStrategy>());
  registry.Register(std::make_unique<PartitionStrategy>());
  registry.Register(std::make_unique<MultiwayStrategy>());
  registry.Register(std::make_unique<OrderedBucketStrategy>());
  registry.Register(std::make_unique<TwoRoundStrategy>());
  registry.Register(std::make_unique<CensusStrategy>());
  registry.Register(std::make_unique<LabeledStrategy>());
  registry.Register(std::make_unique<DirectedStrategy>());
  registry.Register(std::make_unique<AutoStrategy>());
}

}  // namespace smr
