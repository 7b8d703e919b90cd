// Quickstart: enumerate triangles in a graph through the registry-driven
// Query/Strategy/Result API.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart [path/to/edge_list.txt]
//
// Without an argument a random graph is generated. With a file argument,
// the file is read as a whitespace-separated edge list ("u v" per line,
// '#' comments allowed).

#include <cstdio>
#include <string>

#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sample_graph.h"

int main(int argc, char** argv) {
  // 1. Load or generate the data graph.
  const smr::Graph graph = argc > 1
                               ? smr::ReadEdgeListFile(argv[1])
                               : smr::ErdosRenyi(/*num_nodes=*/5000,
                                                 /*num_edges=*/40000,
                                                 /*seed=*/2026);
  std::printf("data graph: %u nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  // 2. A query is a pattern + data graph + strategy spec. "orderedbucket:8"
  //    is the specialized Section-2.3 algorithm: b per-edge replication,
  //    C(b+2,3) reducers, every triangle found exactly once.
  const smr::SampleGraph triangle = smr::SampleGraph::Triangle();
  smr::CountingSink count;
  const smr::EnumerationResult ordered = smr::StrategyRegistry::Global().Run(
      smr::EnumerationQuery::Undirected(triangle, graph)
          .WithStrategy("orderedbucket:8")
          .WithSink(&count));
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(ordered.instances));
  std::printf("map-reduce metrics: %s\n", ordered.metrics.ToString().c_str());

  // 3. "auto:<k>" lets the PlanAdvisor pick the cheapest plan for a
  //    reducer budget — here it compares the one-round strategies against
  //    the multi-round triangle pipelines and reports its choice.
  const smr::EnumerationResult automatic = smr::StrategyRegistry::Global().Run(
      smr::EnumerationQuery::Undirected(triangle, graph)
          .WithStrategy("auto:512"));
  std::printf("auto:512 resolved to %s, agrees: %s (%llu)\n",
              automatic.resolved_spec.ToSpec().c_str(),
              automatic.instances == ordered.instances ? "yes" : "NO",
              static_cast<unsigned long long>(automatic.instances));
  std::printf("  plan: %s\n", automatic.plan.c_str());

  // 4. And the serial reference for a sanity check.
  const smr::EnumerationResult serial = smr::StrategyRegistry::Global().Run(
      smr::EnumerationQuery::Undirected(triangle, graph)
          .WithStrategy("serial"));
  std::printf("serial reference agrees:        %s (%llu)\n",
              serial.instances == ordered.instances ? "yes" : "NO",
              static_cast<unsigned long long>(serial.instances));
  return automatic.instances == ordered.instances &&
                 serial.instances == ordered.instances
             ? 0
             : 1;
}
