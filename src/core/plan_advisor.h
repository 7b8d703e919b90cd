#ifndef SMR_CORE_PLAN_ADVISOR_H_
#define SMR_CORE_PLAN_ADVISOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/sample_graph.h"

namespace smr {

struct JobMetrics;  // mapreduce/job.h

/// Production-side planning helper: given a sample graph and a reducer
/// budget k, predicts the communication cost of the strategies this library
/// offers and recommends one. All predictions are closed-form / optimizer
/// outputs — no enumeration pass needed — which is how a job would be
/// planned before launching a cluster round.
///
/// The trade-off encoded here is the paper's Section 4: bucket-oriented
/// processing ships each edge in one orientation but cannot tune
/// per-variable shares; variable-oriented processing tunes the shares but
/// pays coefficient 2 for bidirectional edges. When the pattern is the
/// triangle and the caller supplies data statistics (PlanInputs), the
/// multi-round pipelines join the comparison: the two-round node-iterator
/// ships 2m + #2-paths total, and the census pipeline adds its counting
/// round — cheaper than one-round replication on sparse graphs, at the
/// price of extra synchronization barriers (Section 2's discussion).
struct StrategyPlan {
  enum class Strategy {
    kBucketOriented,
    kVariableOriented,
    kTwoRound,
    kCensus,
  };

  Strategy recommended;
  /// Bucket count b for bucket-oriented processing with C(b+p-1, p) <= k.
  int buckets = 0;
  double bucket_cost_per_edge = 0;
  /// Optimizer shares for variable-oriented processing at reducer budget k.
  std::vector<double> shares;
  double variable_cost_per_edge = 0;
  /// Predicted per-edge communication of the two-round triangle pipeline
  /// ((2m + #2-paths) / m) and of the census pipeline (two-round plus the
  /// counting round's 3*T/m, T estimated when not supplied). 0 when the
  /// pattern is not the triangle or no data statistics were supplied.
  double two_round_cost_per_edge = 0;
  double census_cost_per_edge = 0;
  /// Number of CQs the reducers evaluate for the one-round strategies.
  size_t num_cqs = 0;
  /// The reducer budget the plan was computed for.
  double k = 0;

  /// The recommended strategy as a runnable registry spec ("bucket:10",
  /// "variable-auto:729", "tworound", "census").
  std::string RecommendedSpec() const;

  std::string ToString() const;
};

/// Optional data-graph statistics (and query context) that let the advisor
/// price the multi-round triangle pipelines alongside the one-round
/// strategies. All fields are cheap O(n + m) aggregates — never an
/// enumeration result.
struct PlanInputs {
  /// Reducer budget (>= 1), as in the two-argument PlanEnumeration.
  double k = 256;
  NodeId nodes = 0;
  uint64_t edges = 0;
  /// Properly ordered 2-paths under the degree order: sum over nodes of
  /// C(forward-degree, 2) — exactly round 1's intermediate record count
  /// (see CountOrderedWedges). 0 = unknown (multi-round plans skipped).
  uint64_t wedges = 0;
  /// True when the query only counts (null sink or InstanceSink::
  /// CountsOnly): the census pipeline is eligible only then, because it
  /// never emits instances.
  bool counting_only = false;
};

/// Plans for `pattern` at reducer budget k (>= 1) — one-round strategies
/// only, exactly the pre-PlanInputs behavior.
StrategyPlan PlanEnumeration(const SampleGraph& pattern, double k);

/// Plans for `pattern` with full inputs; recommends the cheapest *eligible*
/// strategy (two-round needs triangle + wedge statistics, census
/// additionally a counting-only query). Ties keep the earlier entry in the
/// order bucket, variable, two-round, census.
StrategyPlan PlanEnumeration(const SampleGraph& pattern,
                             const PlanInputs& inputs);

/// The `wedges` statistic of PlanInputs for `graph`: 2-paths u - v - w with
/// u, w after v in the nondecreasing-degree order (O(m^{3/2}) total, per
/// the classic bound). One O(n + m) adjacency pass.
uint64_t CountOrderedWedges(const Graph& graph);

/// Measured per-pair byte costs keyed by strategy name — the observed
/// counterpart of the closed-form pair counts everything above predicts.
/// The process backend (mapreduce/process_backend.h) counts the bytes a
/// strategy's shuffle really puts on the wire; feeding those measurements
/// in here lets `auto:<k>` price candidate plans in observed bytes per
/// edge instead of modeled pairs per edge. With no measurement recorded,
/// every strategy falls back to the modeled record size, so the pricing
/// order — and therefore every existing `auto` pick — is unchanged.
/// Thread-safe; process-wide (like the StrategyRegistry it calibrates).
class CostCalibration {
 public:
  static CostCalibration& Global();

  /// Modeled wire cost of one pair when no measurement exists: an 8-byte
  /// reducer key plus the 8-byte packed edge value every builtin ships.
  static constexpr double kModeledBytesPerPair = 16.0;

  /// Records a measured per-pair byte cost for `strategy` (overwrites).
  void Record(const std::string& strategy, double bytes_per_pair);

  /// Folds an executed job's wire measurements in: summed map-side bytes
  /// on the wire over summed logical pairs across the job's rounds. A job
  /// with no wire bytes (the thread backend never serializes) is ignored.
  void Observe(const std::string& strategy, const JobMetrics& job);

  /// The measured per-pair cost, if any run of `strategy` was observed.
  std::optional<double> BytesPerPair(const std::string& strategy) const;

  /// The calibrated pricing hook `auto:<k>` folds into every candidate's
  /// EstimateCostPerEdge: pairs/edge x measured-or-modeled bytes/pair.
  double BytesPerEdge(const std::string& strategy,
                      double pairs_per_edge) const;

  void Clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> measured_;
};

/// The closed forms the advisor and the strategies' EstimateCostPerEdge
/// hooks share, so a plan comparison and a strategy's self-assessment can
/// never diverge.

/// Largest b (1 when k < 1, at most INT_MAX) whose bucket-oriented reducer
/// space C(b+p-1, p) fits in budget k. Throws std::invalid_argument when k
/// is NaN or >= 2^64, past the uint64 reducer-key space.
int BucketCountForBudget(double k, int num_vars);

/// Per-edge communication of the two-round triangle pipeline:
/// (2m + wedges) / m — exact, given the wedge statistic.
double TwoRoundCostPerEdge(uint64_t edges, uint64_t wedges);

/// Per-edge communication of the census pipeline: two-round plus the
/// counting round's 3*T/m, T estimated via the ER wedge-closure
/// probability 2m / (n(n-1)).
double CensusCostPerEdge(NodeId nodes, uint64_t edges, uint64_t wedges);

}  // namespace smr

#endif  // SMR_CORE_PLAN_ADVISOR_H_
