#ifndef SMR_CORE_STRATEGY_H_
#define SMR_CORE_STRATEGY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {

class ConjunctiveQuery;
class DirectedGraph;
class DirectedSampleGraph;
class Graph;
class LabeledGraph;
class LabeledSampleGraph;
class SampleGraph;

/// The unified enumeration API: the paper treats bucket-oriented,
/// variable-oriented, and the multi-round triangle pipelines as
/// interchangeable *plans* for the same query, chosen by a cost model
/// (Section 4's trade-off). This header makes that first-class:
///
///   * EnumerationQuery  — pattern + data graph + strategy spec + tunables;
///   * Strategy          — a registered plan with a stable name, capability
///                         flags, declared tunables, and a closed-form cost
///                         estimate hook feeding the PlanAdvisor;
///   * EnumerationResult — instances + MapReduceMetrics + JobMetrics + the
///                         resolved plan.
///
/// New workloads plug in by registration (StrategyRegistry::Register), not
/// by widening a facade; `auto:<k>` routes strategy selection through the
/// PlanAdvisor.

// ---------------------------------------------------------------------------
// Tunables and strategy specs
// ---------------------------------------------------------------------------

/// One resolved tunable value. `kIntList` covers the variable-oriented
/// share vector ("2x2x3" in spec syntax); an *empty* list is a valid value
/// meaning "let the strategy choose" and renders as nothing.
struct TunableValue {
  enum class Kind { kInt, kDouble, kIntList };

  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0;
  std::vector<int> list_value;

  static TunableValue Int(int64_t v);
  static TunableValue Double(double v);
  static TunableValue IntList(std::vector<int> v);

  /// Canonical spec rendering ("8", "256", "1.5", "2x2x3", "" for an empty
  /// list). Doubles that hold integral values print without a decimal
  /// point, so ToSpec(ParseStrategySpec(s)) is stable.
  std::string Render() const;

  bool operator==(const TunableValue& other) const;
};

/// Declaration of one tunable a strategy accepts: spec position, type,
/// default, and lower bound. Tunables are positional in the spec syntax
/// (`name:v1:v2`); omitted trailing tunables take their declared default.
struct TunableDecl {
  std::string name;  ///< e.g. "b", "k", "shares"
  std::string doc;   ///< one-line help for --list-strategies
  TunableValue default_value;
  /// Inclusive lower bound checked at parse/resolve time (ints compare
  /// int_value, doubles double_value; lists check each element >= 1).
  int64_t min_int = 1;
  double min_double = 1.0;
};

/// A parsed strategy spec: the strategy's registered name plus one resolved
/// value per declared tunable (defaults filled in). Obtain one from
/// ParseStrategySpec("bucket:8") or construct directly with the factories
/// on TunableValue and let StrategyRegistry::Run resolve the defaults.
struct StrategySpec {
  std::string name;
  std::vector<TunableValue> values;

  /// Canonical colon-separated form with defaults made explicit:
  /// ToSpec(ParseStrategySpec("bucket")) == "bucket:8". Empty-list values
  /// render as nothing ("variable" stays "variable").
  std::string ToSpec() const;

  bool operator==(const StrategySpec& other) const {
    return name == other.name && values == other.values;
  }
};

// ---------------------------------------------------------------------------
// Queries and results
// ---------------------------------------------------------------------------

/// What a strategy can run on. A query carries exactly one pattern/graph
/// family (undirected, labeled, or directed); the registry rejects a
/// strategy whose flags do not cover the query's family, and
/// `triangle_only` strategies additionally require the undirected pattern
/// to be the triangle.
struct StrategyCapabilities {
  bool undirected = false;
  bool labeled = false;
  bool directed = false;
  /// Pattern-restricted: only SampleGraph::Triangle() (the Section 2
  /// triangle algorithms and the census/two-round pipelines).
  bool triangle_only = false;
  /// False for counting-only pipelines (census): the sink's Emit is never
  /// called; results arrive in EnumerationResult::per_node / instances,
  /// and a sink that declares CountsOnly() still receives the total via
  /// EmitCount.
  bool emits_instances = true;

  /// "undirected,triangle-only,counting-only" style summary.
  std::string ToString() const;
};

/// One enumeration request: which pattern in which data graph, with which
/// strategy, under which engine policy. Build with the family factories and
/// the With* sugar; the struct stores non-owning pointers, so every graph
/// must outlive the query.
struct EnumerationQuery {
  // Exactly one family is non-null (enforced by StrategyRegistry::Run).
  const SampleGraph* pattern = nullptr;
  const Graph* graph = nullptr;
  const LabeledSampleGraph* labeled_pattern = nullptr;
  const LabeledGraph* labeled_graph = nullptr;
  const DirectedSampleGraph* directed_pattern = nullptr;
  const DirectedGraph* directed_graph = nullptr;

  /// Unused: strategies generate the CQ set (Section 3) for `pattern`
  /// themselves, in microseconds. Kept only so callers that still set it
  /// compile; new code should leave it alone.
  const std::vector<ConjunctiveQuery>* cqs = nullptr;

  StrategySpec spec;
  uint64_t seed = 1;
  ExecutionPolicy policy = ExecutionPolicy::Serial();
  /// Receives instances; may be null to only count.
  InstanceSink* sink = nullptr;

  static EnumerationQuery Undirected(const SampleGraph& pattern,
                                     const Graph& graph);
  static EnumerationQuery Labeled(const LabeledSampleGraph& pattern,
                                  const LabeledGraph& graph);
  static EnumerationQuery Directed(const DirectedSampleGraph& pattern,
                                   const DirectedGraph& graph);

  /// Parses `spec_string` against the global registry (throws
  /// std::invalid_argument on unknown names / bad tunables).
  EnumerationQuery& WithStrategy(std::string_view spec_string);
  EnumerationQuery& WithSpec(StrategySpec s);
  EnumerationQuery& WithSeed(uint64_t s);
  EnumerationQuery& WithPolicy(const ExecutionPolicy& p);
  EnumerationQuery& WithSink(InstanceSink* s);
};

/// What a strategy run produced. `instances` is always filled; the metrics
/// block is present for map-reduce strategies (`has_metrics`), and `job`
/// has one entry per engine round (empty for the serial reference).
struct EnumerationResult {
  uint64_t instances = 0;

  bool has_metrics = false;
  /// The strategy's headline round: the single round for one-round
  /// strategies (byte-identical to what the free-function kernel returns),
  /// the final round for pipelines.
  MapReduceMetrics metrics;
  JobMetrics job;

  /// The spec that actually ran — equal to the query's spec except for
  /// `auto:<k>`, which resolves to the advisor's pick.
  StrategySpec resolved_spec;
  /// Human-readable plan (the advisor's comparison for `auto`, empty
  /// otherwise).
  std::string plan;

  /// Census only: triangles per node (empty for every other strategy).
  std::vector<uint64_t> per_node;
};

// ---------------------------------------------------------------------------
// Strategies and the registry
// ---------------------------------------------------------------------------

/// A registered enumeration plan. Implementations adapt the library's
/// enumeration kernels to the uniform query interface; see
/// builtin_strategies.cc for the stock set and for how to add one.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Stable registry name ("bucket", "variable-auto", "tworound", ...).
  virtual const std::string& name() const = 0;
  virtual const std::string& description() const = 0;
  virtual const StrategyCapabilities& capabilities() const = 0;
  virtual const std::vector<TunableDecl>& tunables() const = 0;

  /// Closed-form communication estimate (key-value pairs per data edge)
  /// for `query`'s resolved spec. The `auto:<k>` strategy selects its plan
  /// by comparing candidates through this hook (built-ins share the exact
  /// closed forms the PlanAdvisor prints, so the pick always matches
  /// plan.recommended). No enumeration happens here; at most an O(n + m)
  /// statistics pass. nullopt when the strategy has no meaningful
  /// per-edge cost (serial).
  virtual std::optional<double> EstimateCostPerEdge(
      const EnumerationQuery& query) const;

  /// Runs the strategy. `query.spec` is already resolved (defaults filled,
  /// bounds checked) by the registry.
  virtual EnumerationResult Run(const EnumerationQuery& query) const = 0;

  /// Validates `spec` against the declared tunables and fills defaults for
  /// omitted trailing values. Throws std::invalid_argument on arity or
  /// bound violations.
  StrategySpec ResolveSpec(StrategySpec spec) const;
};

/// Process-wide name -> Strategy map. `Global()` comes pre-populated with
/// every built-in strategy; libraries and tests may Register more at any
/// time. All methods are thread-safe; registered strategies are never
/// removed, so the pointers returned by Find/Strategies stay valid for the
/// process lifetime.
class StrategyRegistry {
 public:
  /// The process-wide registry, with built-ins registered.
  static StrategyRegistry& Global();

  /// Throws std::invalid_argument if the name is already taken.
  void Register(std::unique_ptr<Strategy> strategy);

  /// nullptr when unknown.
  const Strategy* Find(std::string_view name) const;

  /// Throws std::invalid_argument listing the known names when unknown.
  const Strategy& Require(std::string_view name) const;

  /// All strategies, sorted by name.
  std::vector<const Strategy*> Strategies() const;

  /// Parses "name[:v1[:v2...]]" against this registry's declared tunables:
  /// checked numeric parses (garbage and overflow rejected), bounds
  /// enforced, defaults filled. Throws std::invalid_argument.
  StrategySpec Parse(std::string_view spec_string) const;

  /// Dispatches `query` to its strategy: resolves the spec, checks the
  /// capability flags against the query's family and pattern, and runs.
  /// Throws std::invalid_argument on unknown strategy or mismatch, and for
  /// every strategy but "serial" when a pattern variable lies in no pattern
  /// edge: reducers see only edges, so they could never bind it.
  EnumerationResult Run(const EnumerationQuery& query) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Strategy>, std::less<>> strategies_;
};

/// Shorthand for StrategyRegistry::Global().Parse(spec_string) — the one
/// spec parser shared by the CLI, tests, and benches.
StrategySpec ParseStrategySpec(std::string_view spec_string);

/// Registers the built-in strategies (bucket, variable, variable-auto,
/// serial, partition, multiway, orderedbucket, tworound, census, labeled,
/// directed, auto) into `registry`. Called once by Global(); exposed for
/// tests that build private registries.
void RegisterBuiltinStrategies(StrategyRegistry& registry);

}  // namespace smr

#endif  // SMR_CORE_STRATEGY_H_
