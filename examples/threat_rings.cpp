// Threat-detection rings (Section 1.1's second application): find closed
// rings of interactions — cycles C_p — inside a transaction network, using
// the run-sequence CQs of Section 5, which need far fewer conjunctive
// queries than the generic Section-3 construction.
//
// The scenario: accounts transact with each other; a "ring" of length p
// (money moving around a cycle of p distinct accounts) is a fraud signal.
//
// Run: ./build/examples/threat_rings [ring_length]

#include <cstdio>
#include <cstdlib>

#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "cycles/cycle_cqs.h"
#include "graph/generators.h"
#include "serial/matcher.h"

int main(int argc, char** argv) {
  const int ring = argc > 1 ? std::atoi(argv[1]) : 6;
  if (ring < 3 || ring > 8) {
    std::fprintf(stderr, "ring length must be in [3, 8]\n");
    return 1;
  }

  // A transaction network: mostly sparse random traffic plus a few planted
  // rings.
  smr::Graph base = smr::ErdosRenyi(600, 1500, 4242);
  std::vector<smr::Edge> edges = base.edges();
  const smr::NodeId n = base.num_nodes();
  for (int planted = 0; planted < 3; ++planted) {
    const smr::NodeId start = static_cast<smr::NodeId>(37 * (planted + 1));
    for (int i = 0; i < ring; ++i) {
      edges.emplace_back(start + i, start + (i + 1) % ring);
    }
  }
  const smr::Graph network(n, std::move(edges));
  std::printf("transaction network: %u accounts, %zu edges, 3 planted "
              "C%d rings\n\n",
              network.num_nodes(), network.num_edges(), ring);

  // Section 5 construction: one CQ per orientation class.
  const auto ring_cqs = smr::CycleCqs(ring);
  const auto generic_cqs =
      smr::CqsForSample(smr::SampleGraph::Cycle(ring));
  std::printf("CQs needed: %zu (orientation method, Section 5) vs %zu "
              "(generic method, Section 3)\n",
              ring_cqs.size(), generic_cqs.size());

  const smr::CqEvaluator evaluator(
      network, smr::NodeOrder::Identity(network.num_nodes()));
  smr::CollectingSink rings_found;
  smr::CostCounter cost;
  for (const auto& entry : ring_cqs) {
    evaluator.Evaluate(entry.cq, &rings_found, &cost);
  }
  std::printf("rings of length %d found: %zu (ops: %llu)\n", ring,
              rings_found.assignments().size(),
              static_cast<unsigned long long>(cost.Total()));

  const uint64_t reference =
      smr::CountInstances(smr::SampleGraph::Cycle(ring), network);
  std::printf("serial reference count:    %llu (%s)\n",
              static_cast<unsigned long long>(reference),
              reference == rings_found.assignments().size() ? "match"
                                                            : "MISMATCH");

  // Show a few of the suspicious rings.
  std::printf("\nfirst rings (accounts):\n");
  const size_t show = std::min<size_t>(5, rings_found.assignments().size());
  for (size_t i = 0; i < show; ++i) {
    std::printf(" ");
    for (smr::NodeId account : rings_found.assignments()[i]) {
      std::printf(" %u", account);
    }
    std::printf("\n");
  }
  return reference == rings_found.assignments().size() ? 0 : 1;
}
