// The paper's Section 1.1 threat-detection query, on labeled edges:
// "find all groups of people booked on the same flight each of whom has
// bought explosive materials [from the same supplier]".
//
// Model: person nodes and supplier nodes; label 0 = "co-booked on a
// flight" (person-person), label 1 = "purchased precursors from"
// (person-supplier). The pattern is a co-booked triangle of people all
// purchasing from one supplier — a labeled wheel on p = 4 variables.
//
// Run: ./build/examples/labeled_flight

#include <cstdio>
#include <set>
#include <vector>

#include "labeled/labeled_enumeration.h"
#include "util/rng.h"

namespace {

constexpr smr::EdgeLabel kCoBooked = 0;
constexpr smr::EdgeLabel kPurchased = 1;

}  // namespace

int main() {
  // 300 travellers, 20 suppliers. Random co-booking cliques per "flight",
  // random purchase edges, plus one planted suspicious group.
  const smr::NodeId travellers = 300;
  const smr::NodeId suppliers = 20;
  smr::Rng rng(99);
  std::vector<smr::LabeledEdge> edges;
  std::set<std::pair<smr::NodeId, smr::NodeId>> seen;
  auto add = [&](smr::NodeId u, smr::NodeId v, smr::EdgeLabel label) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) edges.push_back({u, v, label});
  };

  // 60 flights of ~5 passengers each: co-booked cliques.
  for (int flight = 0; flight < 60; ++flight) {
    std::vector<smr::NodeId> passengers;
    for (int s = 0; s < 5; ++s) {
      passengers.push_back(static_cast<smr::NodeId>(rng.Below(travellers)));
    }
    for (size_t i = 0; i < passengers.size(); ++i) {
      for (size_t j = i + 1; j < passengers.size(); ++j) {
        add(passengers[i], passengers[j], kCoBooked);
      }
    }
  }
  // Random purchases.
  for (int purchase = 0; purchase < 250; ++purchase) {
    add(static_cast<smr::NodeId>(rng.Below(travellers)),
        static_cast<smr::NodeId>(travellers + rng.Below(suppliers)),
        kPurchased);
  }
  // Planted group: travellers 7, 8, 9 co-booked, all buying from supplier 0.
  add(7, 8, kCoBooked);
  add(7, 9, kCoBooked);
  add(8, 9, kCoBooked);
  for (smr::NodeId person : {7u, 8u, 9u}) {
    add(person, travellers + 0, kPurchased);
  }

  const smr::LabeledGraph network(travellers + suppliers, std::move(edges));
  std::printf("network: %u nodes, %zu labeled edges\n", network.num_nodes(),
              network.num_edges());

  // Pattern: vars 0,1,2 = people (co-booked triangle), var 3 = supplier.
  const smr::LabeledSampleGraph threat(4, {{0, 1, kCoBooked},
                                           {0, 2, kCoBooked},
                                           {1, 2, kCoBooked},
                                           {0, 3, kPurchased},
                                           {1, 3, kPurchased},
                                           {2, 3, kPurchased}});
  std::printf("pattern: %s\n", threat.ToString().c_str());
  const auto cqs = smr::LabeledCqsForSample(threat);
  std::printf("label-preserving |Aut| = %zu -> %zu CQs\n",
              threat.Automorphisms().size(), cqs.size());

  smr::CollectingSink hits;
  const auto metrics =
      smr::LabeledBucketOrientedEnumerate(threat, network, 4, 5, &hits);
  std::printf("map-reduce round: %s\n", metrics.ToString().c_str());

  const uint64_t serial =
      smr::EnumerateLabeledInstances(threat, network, nullptr, nullptr);
  std::printf("suspicious groups found: %zu (serial check: %llu)\n",
              hits.assignments().size(),
              static_cast<unsigned long long>(serial));
  for (const auto& group : hits.assignments()) {
    std::printf("  people {%u, %u, %u} -> supplier %u\n", group[0], group[1],
                group[2], group[3] - travellers);
  }
  return hits.assignments().size() == serial ? 0 : 1;
}
