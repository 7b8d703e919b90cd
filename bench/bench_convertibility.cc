// Reproduces Theorem 6.1 (convertible algorithms): the total instrumented
// computation cost over all reducers stays within a constant factor of the
// serial algorithm's cost as the number of reducers grows, when
// p <= alpha + 2*beta. Shown for triangles, squares and lollipops run
// bucket-oriented through the strategy registry, on an Erdős–Rényi graph
// and on a preferential-attachment graph with hubs. Every ratio is taken
// against the serial matcher's operation count.
// The ordered-bucket triangle algorithm (Section 2.3) gets its own rows,
// taken against the serial triangle kernel under the degree order and under
// the same bucket order its reducers use.
// Also prints the (alpha, beta) costs and convertibility verdicts of the
// decomposition algorithm (Theorem 7.2) for a catalog of patterns.
//
// Exits 1 when a bucket-oriented square ratio exceeds kSquareBound, the
// bound tests/core_generic_test.cc asserts, when the ordered-bucket
// reducers' candidates differ from the same-order serial kernel's, or when
// any count differs from the serial one.

#include <cstdio>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "serial/convertible.h"
#include "serial/decomposition.h"
#include "serial/matcher.h"
#include "serial/triangles.h"

namespace smr {
namespace {

constexpr double kSquareBound = 1.5;

struct NamedGraph {
  const char* name;
  Graph graph;
};

/// Prints one pattern's table; returns false if a square ratio breaks the
/// bound.
bool RunPattern(const SampleGraph& pattern, const NamedGraph& input) {
  const Graph& g = input.graph;
  const std::vector<ConjunctiveQuery> cqs = CqsForSample(pattern);
  CostCounter serial_cost;
  const uint64_t serial_found =
      EnumerateInstances(pattern, g, nullptr, &serial_cost);
  std::printf("%s on %s  instances=%llu serial_ops=%llu\n",
              pattern.ToString().c_str(), input.name,
              static_cast<unsigned long long>(serial_found),
              static_cast<unsigned long long>(serial_cost.Total()));
  std::printf("  %4s %12s %14s %12s %8s\n", "b", "reducers", "reduce_ops",
              "outputs", "ratio");
  const bool is_square = pattern.num_vars() == 4 &&
                         pattern.edges() == SampleGraph::Square().edges();
  bool ok = true;
  for (int b : {2, 3, 4, 6}) {
    EnumerationQuery query = EnumerationQuery::Undirected(pattern, g);
    query.cqs = &cqs;
    const EnumerationResult result = StrategyRegistry::Global().Run(
        query.WithStrategy("bucket:" + std::to_string(b)).WithSeed(1));
    const MapReduceMetrics& metrics = result.metrics;
    const double ratio = static_cast<double>(metrics.reduce_cost.Total()) /
                         static_cast<double>(serial_cost.Total());
    const bool over = is_square && ratio > kSquareBound;
    std::printf("  %4d %12llu %14llu %12llu %8.2f%s\n", b,
                static_cast<unsigned long long>(metrics.key_space),
                static_cast<unsigned long long>(metrics.reduce_cost.Total()),
                static_cast<unsigned long long>(metrics.outputs), ratio,
                over ? "  OVER BOUND" : "");
    if (metrics.outputs != serial_found) {
      std::printf("  b=%d found %llu instances, serial found %llu\n", b,
                  static_cast<unsigned long long>(metrics.outputs),
                  static_cast<unsigned long long>(serial_found));
      ok = false;
    }
    ok = ok && !over;
  }
  std::printf("\n");
  return ok;
}

/// Prints the ordered-bucket triangle rows; returns false if the reducers'
/// candidates differ from the serial kernel's under the same bucket order
/// (each owned wedge is explored once, so they must be equal) or if a count
/// differs.
bool RunOrderedBucket(const NamedGraph& input) {
  const Graph& g = input.graph;
  constexpr uint64_t kSeed = 1;
  CostCounter degree_cost;
  const uint64_t serial_found =
      EnumerateTriangles(g, NodeOrder::ByDegree(g), nullptr, &degree_cost);
  std::printf("orderedbucket triangles on %s  instances=%llu "
              "degree_order_ops=%llu\n",
              input.name, static_cast<unsigned long long>(serial_found),
              static_cast<unsigned long long>(degree_cost.Total()));
  std::printf("  %4s %12s %14s %12s %14s %10s\n", "b", "reducers",
              "reduce_ops", "outputs", "vs_degree", "vs_same");
  const SampleGraph triangle = SampleGraph::Triangle();
  bool ok = true;
  for (int b : {2, 4, 8, 12}) {
    const EnumerationResult result = StrategyRegistry::Global().Run(
        EnumerationQuery::Undirected(triangle, g)
            .WithStrategy("orderedbucket:" + std::to_string(b))
            .WithSeed(kSeed));
    const MapReduceMetrics& metrics = result.metrics;
    CostCounter same_cost;
    EnumerateTriangles(g,
                       NodeOrder::ByBucket(g.num_nodes(), BucketHasher(b, kSeed)),
                       nullptr, &same_cost);
    const double reduce_ops =
        static_cast<double>(metrics.reduce_cost.Total());
    const bool pruned = metrics.reduce_cost.candidates == same_cost.candidates;
    std::printf("  %4d %12llu %14llu %12llu %14.2f %10.2f%s\n", b,
                static_cast<unsigned long long>(metrics.key_space),
                static_cast<unsigned long long>(metrics.reduce_cost.Total()),
                static_cast<unsigned long long>(metrics.outputs),
                reduce_ops / static_cast<double>(degree_cost.Total()),
                reduce_ops / static_cast<double>(same_cost.Total()),
                pruned ? "" : "  CANDIDATES DIFFER");
    if (!pruned) {
      std::printf("  b=%d reducer candidates %llu, same-order serial %llu\n",
                  b,
                  static_cast<unsigned long long>(
                      metrics.reduce_cost.candidates),
                  static_cast<unsigned long long>(same_cost.candidates));
      ok = false;
    }
    if (metrics.outputs != serial_found) {
      std::printf("  b=%d found %llu instances, serial found %llu\n", b,
                  static_cast<unsigned long long>(metrics.outputs),
                  static_cast<unsigned long long>(serial_found));
      ok = false;
    }
  }
  std::printf("\n");
  return ok;
}

int Run() {
  const NamedGraph inputs[] = {
      {"ER(1200, 14000)", ErdosRenyi(1200, 14000, 17)},
      {"PA(1200, 6)", PreferentialAttachment(1200, 6, 17)}};
  std::printf(
      "Theorem 6.1: total reducer ops vs serial matcher ops (should stay\n"
      "within a constant factor as reducers grow; square bound %.2f)\n\n",
      kSquareBound);

  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop()};
  bool ok = true;
  for (const auto& input : inputs) {
    for (const auto& pattern : patterns) {
      ok = RunPattern(pattern, input) && ok;
    }
    ok = RunOrderedBucket(input) && ok;
  }

  std::printf("Theorem 7.2: decomposition costs and convertibility\n");
  const SampleGraph catalog[] = {
      SampleGraph::Triangle(), SampleGraph::Square(), SampleGraph::Lollipop(),
      SampleGraph::Cycle(5),   SampleGraph::Cycle(6), SampleGraph::Clique(4),
      SampleGraph::Path(4),    SampleGraph::Star(4),  SampleGraph::Star(5)};
  for (const auto& pattern : catalog) {
    const auto decomposition = DecomposeSample(pattern);
    const SerialCost cost = CostOfDecomposition(*decomposition);
    std::printf("  %-30s %-34s %s convertible=%s\n",
                pattern.ToString().c_str(), decomposition->ToString().c_str(),
                cost.ToString().c_str(),
                IsConvertible(cost, pattern.num_vars()) ? "yes" : "no");
  }
  if (!ok) {
    std::printf("\nFAIL: a bucket-oriented square ratio exceeds %.2f, the "
                "ordered-bucket reducers explore wedges they do not own, or "
                "a count differs from the serial one\n",
                kSquareBound);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace smr

int main() { return smr::Run(); }
