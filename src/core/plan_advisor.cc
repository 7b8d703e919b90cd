#include "core/plan_advisor.h"

#include <algorithm>
#include <limits>
#include <ranges>
#include <sstream>
#include <stdexcept>

#include "cq/cq_generation.h"
#include "mapreduce/job.h"
#include "graph/node_order.h"
#include "shares/cost_expression.h"
#include "shares/replication_formulas.h"
#include "shares/share_optimizer.h"
#include "util/combinatorics.h"

namespace smr {

namespace {

const char* StrategyName(StrategyPlan::Strategy s) {
  switch (s) {
    case StrategyPlan::Strategy::kBucketOriented:
      return "bucket-oriented";
    case StrategyPlan::Strategy::kVariableOriented:
      return "variable-oriented";
    case StrategyPlan::Strategy::kTwoRound:
      return "two-round";
    case StrategyPlan::Strategy::kCensus:
      return "census";
  }
  return "?";
}

bool IsTriangle(const SampleGraph& pattern) {
  return pattern.num_vars() == 3 && pattern.num_edges() == 3;
}

}  // namespace

std::string StrategyPlan::RecommendedSpec() const {
  std::ostringstream os;
  switch (recommended) {
    case Strategy::kBucketOriented:
      os << "bucket:" << buckets;
      break;
    case Strategy::kVariableOriented:
      os << "variable-auto:" << k;
      break;
    case Strategy::kTwoRound:
      os << "tworound";
      break;
    case Strategy::kCensus:
      os << "census";
      break;
  }
  return os.str();
}

std::string StrategyPlan::ToString() const {
  std::ostringstream os;
  os << "recommended=" << StrategyName(recommended) << " bucket(b=" << buckets
     << ", cost/edge=" << bucket_cost_per_edge
     << ") variable(cost/edge=" << variable_cost_per_edge << ", shares=[";
  for (size_t i = 0; i < shares.size(); ++i) {
    if (i > 0) os << ", ";
    os << shares[i];
  }
  os << "])";
  if (two_round_cost_per_edge > 0) {
    os << " two-round(cost/edge=" << two_round_cost_per_edge << ")";
  }
  if (census_cost_per_edge > 0) {
    os << " census(cost/edge=" << census_cost_per_edge << ")";
  }
  os << " cqs=" << num_cqs;
  return os.str();
}

int BucketCountForBudget(double k, int num_vars) {
  // 2^64 as a double: a budget at or above it (or NaN) is no reducer
  // count, and converting it to uint64_t would be undefined.
  if (!(k < 18446744073709551616.0)) {
    std::ostringstream os;
    os << "reducer budget " << k << " exceeds the uint64 reducer-key space";
    throw std::invalid_argument(os.str());
  }
  if (k < 1) return 1;
  const uint64_t budget = static_cast<uint64_t>(k);
  // C(b+p-1, p) grows with b, so the b that fit are a prefix of 1, 2, ...
  const auto buckets = std::views::iota(
      int64_t{1}, int64_t{std::numeric_limits<int>::max()} + 1);
  const auto past_fit = std::ranges::partition_point(buckets, [&](int64_t b) {
    return BinomialAtMost(b + num_vars - 1, num_vars, budget);
  });
  return static_cast<int>(past_fit - buckets.begin());
}

double TwoRoundCostPerEdge(uint64_t edges, uint64_t wedges) {
  if (edges == 0) return 0;
  return 2.0 + static_cast<double>(wedges) / static_cast<double>(edges);
}

double CensusCostPerEdge(NodeId nodes, uint64_t edges, uint64_t wedges) {
  if (edges == 0) return 0;
  const double n = static_cast<double>(nodes);
  const double m = static_cast<double>(edges);
  const double closure = n > 1 ? 2.0 * m / (n * (n - 1)) : 0.0;
  const double triangles = static_cast<double>(wedges) * closure;
  return TwoRoundCostPerEdge(edges, wedges) + 3.0 * triangles / m;
}

uint64_t CountOrderedWedges(const Graph& graph) {
  const NodeOrder order = NodeOrder::ByDegree(graph);
  std::vector<uint64_t> out_degree(graph.num_nodes(), 0);
  for (const Edge& e : graph.edges()) ++out_degree[order.Orient(e).first];
  uint64_t wedges = 0;
  for (const uint64_t d : out_degree) wedges += d * (d - 1) / 2;
  return wedges;
}

StrategyPlan PlanEnumeration(const SampleGraph& pattern, double k) {
  PlanInputs inputs;
  inputs.k = k;
  return PlanEnumeration(pattern, inputs);
}

StrategyPlan PlanEnumeration(const SampleGraph& pattern,
                             const PlanInputs& inputs) {
  const int p = pattern.num_vars();
  StrategyPlan plan;
  plan.k = inputs.k;
  const auto cqs = CqsForSample(pattern);
  plan.num_cqs = cqs.size();

  // Bucket-oriented: the largest b whose useful-reducer count fits in k.
  plan.buckets = BucketCountForBudget(inputs.k, p);
  plan.bucket_cost_per_edge =
      static_cast<double>(BucketOrientedEdgeReplication(plan.buckets, p));

  // Variable-oriented: optimizer on the merged cost expression.
  const ShareSolution solution =
      OptimizeShares(CostExpression::ForCqSet(cqs), inputs.k);
  plan.shares = solution.shares;
  plan.variable_cost_per_edge = solution.cost_per_edge;

  // Multi-round triangle pipelines, priced only when the caller supplied
  // the wedge statistic: round 1 ships one pair per edge, round 2 one per
  // 2-path record plus one closing-edge marker per edge.
  const bool multi_round = IsTriangle(pattern) && inputs.edges > 0;
  if (multi_round) {
    plan.two_round_cost_per_edge =
        TwoRoundCostPerEdge(inputs.edges, inputs.wedges);
    if (inputs.counting_only) {
      // The counting round ships 3 pairs per triangle (model cost; the
      // map-side combiner lowers the physical volume, not this number).
      plan.census_cost_per_edge =
          CensusCostPerEdge(inputs.nodes, inputs.edges, inputs.wedges);
    }
  }

  // Cheapest eligible strategy; ties keep the earlier candidate.
  plan.recommended = StrategyPlan::Strategy::kBucketOriented;
  double best = plan.bucket_cost_per_edge;
  const auto consider = [&](StrategyPlan::Strategy candidate, double cost) {
    if (cost > 0 && cost < best) {
      best = cost;
      plan.recommended = candidate;
    }
  };
  consider(StrategyPlan::Strategy::kVariableOriented,
           plan.variable_cost_per_edge);
  consider(StrategyPlan::Strategy::kTwoRound, plan.two_round_cost_per_edge);
  consider(StrategyPlan::Strategy::kCensus, plan.census_cost_per_edge);
  return plan;
}

CostCalibration& CostCalibration::Global() {
  static CostCalibration calibration;
  return calibration;
}

void CostCalibration::Record(const std::string& strategy,
                             double bytes_per_pair) {
  if (!(bytes_per_pair > 0)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  measured_[strategy] = bytes_per_pair;
}

void CostCalibration::Observe(const std::string& strategy,
                              const JobMetrics& job) {
  uint64_t wire_bytes = 0;
  uint64_t logical_pairs = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    wire_bytes += round.metrics.shuffle.map_bytes_on_wire;
    logical_pairs += round.metrics.key_value_pairs;
  }
  if (wire_bytes == 0 || logical_pairs == 0) return;
  Record(strategy, static_cast<double>(wire_bytes) /
                       static_cast<double>(logical_pairs));
}

std::optional<double> CostCalibration::BytesPerPair(
    const std::string& strategy) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = measured_.find(strategy);
  if (it == measured_.end()) return std::nullopt;
  return it->second;
}

double CostCalibration::BytesPerEdge(const std::string& strategy,
                                     double pairs_per_edge) const {
  return pairs_per_edge * BytesPerPair(strategy).value_or(
                              kModeledBytesPerPair);
}

void CostCalibration::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  measured_.clear();
}

}  // namespace smr
