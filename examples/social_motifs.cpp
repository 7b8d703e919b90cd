// Social-network motif census (the application of Section 1.1 / [14]):
// counts several small motifs — triangles, squares, lollipops, 5-cycles —
// in a synthetic power-law "community" graph, comparing the communication
// cost of bucket-oriented and share-optimized variable-oriented processing
// for each motif through the registry-driven query API.
//
// Run: ./build/examples/social_motifs [num_members]

#include <cstdio>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "util/parse.h"

namespace {

struct Motif {
  const char* name;
  smr::SampleGraph pattern;
};

}  // namespace

int main(int argc, char** argv) {
  smr::NodeId members = 400;
  if (argc > 1) {
    const auto parsed = smr::ParseInt64(argv[1]);
    if (!parsed || *parsed < 2 || *parsed > (int64_t{1} << 31)) {
      std::fprintf(stderr, "error: num_members needs an integer >= 2, "
                   "got '%s'\n", argv[1]);
      return 2;
    }
    members = static_cast<smr::NodeId>(*parsed);
  }
  // Preferential attachment mimics the heavy-tailed degree distribution of
  // real social graphs — the regime where the "curse of the last reducer"
  // [19] makes naive partitioning slow.
  const smr::Graph network = smr::PreferentialAttachment(members, 3, 77);
  std::printf("community graph: %u members, %zu ties, max degree %zu\n\n",
              network.num_nodes(), network.num_edges(), network.MaxDegree());

  const std::vector<Motif> motifs = {
      {"triangle (closed triad)", smr::SampleGraph::Triangle()},
      {"square (4-cycle)", smr::SampleGraph::Square()},
      {"lollipop (triad + tail)", smr::SampleGraph::Lollipop()},
      {"5-cycle", smr::SampleGraph::Cycle(5)},
  };

  std::printf("%-26s %10s %8s | %14s %14s\n", "motif", "count", "CQs",
              "bucket repl", "variable repl");
  bool agree = true;
  for (const Motif& motif : motifs) {
    const auto& registry = smr::StrategyRegistry::Global();
    const auto bucket =
        registry.Run(smr::EnumerationQuery::Undirected(motif.pattern, network)
                         .WithStrategy("bucket:4")
                         .WithSeed(9));
    // Variable-oriented with optimizer-chosen shares at a similar reducer
    // budget.
    const auto variable =
        registry.Run(smr::EnumerationQuery::Undirected(motif.pattern, network)
                         .WithStrategy("variable-auto:" +
                                       std::to_string(bucket.metrics.key_space))
                         .WithSeed(9));
    const bool same = bucket.instances == variable.instances;
    agree = agree && same;
    std::printf("%-26s %10llu %8zu | %11.1f/e %11.1f/e%s\n", motif.name,
                static_cast<unsigned long long>(bucket.instances),
                smr::CqsForSample(motif.pattern).size(),
                bucket.metrics.ReplicationRate(),
                variable.metrics.ReplicationRate(), same ? "" : "  DISAGREE");
  }

  std::printf(
      "\nmotif ratios like (squares : triangles) feed the community\n"
      "life-stage classifiers described in the paper's Section 1.1.\n");
  return agree ? 0 : 1;
}
