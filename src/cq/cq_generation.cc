#include "cq/cq_generation.h"

#include <algorithm>
#include <map>

#include "util/combinatorics.h"

namespace smr {

std::vector<ConjunctiveQuery> GenerateOrderCqs(const SampleGraph& pattern) {
  return GenerateOrderCqs(pattern, pattern.Automorphisms());
}

std::vector<ConjunctiveQuery> GenerateOrderCqs(
    const SampleGraph& pattern,
    const std::vector<std::vector<int>>& automorphisms) {
  std::vector<ConjunctiveQuery> cqs;
  std::vector<int> relabeled(pattern.num_vars());
  for (const auto& order : AllPermutations(pattern.num_vars())) {
    // Keep `order` only if it is the lexicographically smallest member of
    // its orbit under variable relabeling by automorphisms.
    bool smallest = true;
    for (const auto& mu : automorphisms) {
      for (size_t i = 0; i < order.size(); ++i) relabeled[i] = mu[order[i]];
      if (std::lexicographical_compare(relabeled.begin(), relabeled.end(),
                                       order.begin(), order.end())) {
        smallest = false;
        break;
      }
    }
    if (smallest) cqs.push_back(ConjunctiveQuery::ForOrder(pattern, order));
  }
  return cqs;
}

std::vector<ConjunctiveQuery> MergeByOrientation(
    const std::vector<ConjunctiveQuery>& cqs) {
  std::vector<ConjunctiveQuery> merged;
  std::map<std::vector<std::pair<int, int>>, size_t> index_of;
  for (const ConjunctiveQuery& cq : cqs) {
    auto [it, inserted] = index_of.emplace(cq.subgoals(), merged.size());
    if (inserted) {
      merged.push_back(cq);
    } else {
      merged[it->second].MergeCondition(cq);
    }
  }
  return merged;
}

std::vector<ConjunctiveQuery> CqsForSample(const SampleGraph& pattern) {
  return MergeByOrientation(GenerateOrderCqs(pattern));
}

}  // namespace smr
