#include "cq/conjunctive_query.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/combinatorics.h"

namespace smr {

ConjunctiveQuery::ConjunctiveQuery(
    int num_vars, std::vector<std::pair<int, int>> subgoals,
    std::vector<std::vector<int>> allowed_orders)
    : num_vars_(num_vars),
      subgoals_(std::move(subgoals)),
      allowed_orders_(std::move(allowed_orders)) {
  std::sort(subgoals_.begin(), subgoals_.end());
  std::sort(allowed_orders_.begin(), allowed_orders_.end());
  allowed_orders_.erase(
      std::unique(allowed_orders_.begin(), allowed_orders_.end()),
      allowed_orders_.end());
}

ConjunctiveQuery ConjunctiveQuery::ForOrder(const SampleGraph& pattern,
                                            const std::vector<int>& order) {
  const std::vector<int> position = Inverse(order);
  std::vector<std::pair<int, int>> subgoals;
  subgoals.reserve(pattern.edges().size());
  for (const auto& [a, b] : pattern.edges()) {
    if (position[a] < position[b]) {
      subgoals.emplace_back(a, b);
    } else {
      subgoals.emplace_back(b, a);
    }
  }
  return ConjunctiveQuery(pattern.num_vars(), std::move(subgoals), {order});
}

bool ConjunctiveQuery::OrderAllowed(const std::vector<int>& order) const {
  return std::binary_search(allowed_orders_.begin(), allowed_orders_.end(),
                            order);
}

void ConjunctiveQuery::MergeCondition(const ConjunctiveQuery& other) {
  if (other.subgoals_ != subgoals_ || other.num_vars_ != num_vars_) {
    throw std::invalid_argument("cannot merge CQs with different subgoals");
  }
  allowed_orders_.insert(allowed_orders_.end(), other.allowed_orders_.begin(),
                         other.allowed_orders_.end());
  std::sort(allowed_orders_.begin(), allowed_orders_.end());
  allowed_orders_.erase(
      std::unique(allowed_orders_.begin(), allowed_orders_.end()),
      allowed_orders_.end());
}

std::vector<std::vector<bool>> ConjunctiveQuery::EntailedBefore() const {
  std::vector<std::vector<bool>> before(num_vars_,
                                        std::vector<bool>(num_vars_, true));
  for (int a = 0; a < num_vars_; ++a) before[a][a] = false;
  for (const auto& order : allowed_orders_) {
    const std::vector<int> position = Inverse(order);
    for (int a = 0; a < num_vars_; ++a) {
      for (int b = 0; b < num_vars_; ++b) {
        if (a != b && position[a] >= position[b]) before[a][b] = false;
      }
    }
  }
  return before;
}

ConjunctiveQuery::ConditionAtoms ConjunctiveQuery::Atoms() const {
  const std::vector<std::vector<bool>> before = EntailedBefore();
  ConditionAtoms atoms;
  for (int a = 0; a < num_vars_; ++a) {
    for (int b = 0; b < num_vars_; ++b) {
      if (!before[a][b]) continue;
      atoms.entailed.emplace_back(a, b);
      // Transitive reduction: skip if an intermediate c gives a < c < b.
      bool implied = false;
      for (int c = 0; c < num_vars_ && !implied; ++c) {
        if (c != a && c != b && before[a][c] && before[c][b]) implied = true;
      }
      if (!implied) atoms.less.emplace_back(a, b);
    }
  }
  for (int a = 0; a < num_vars_; ++a) {
    for (int b = a + 1; b < num_vars_; ++b) {
      if (!before[a][b] && !before[b][a]) atoms.unordered.emplace_back(a, b);
    }
  }
  return atoms;
}

bool ConjunctiveQuery::ConditionIsPartialOrderExact() const {
  // Count the linear extensions of the entailed partial order by filtering
  // all permutations (patterns are small).
  const std::vector<std::vector<bool>> before = EntailedBefore();
  uint64_t extensions = 0;
  for (const auto& order : AllPermutations(num_vars_)) {
    const std::vector<int> position = Inverse(order);
    bool ok = true;
    for (int a = 0; a < num_vars_ && ok; ++a) {
      for (int b = 0; b < num_vars_ && ok; ++b) {
        if (before[a][b] && position[a] >= position[b]) ok = false;
      }
    }
    if (ok) ++extensions;
  }
  return extensions == allowed_orders_.size();
}

std::string ConjunctiveQuery::ToString(
    const std::vector<std::string>& names) const {
  // Built without operator+ to dodge GCC 12's -Wrestrict false positive on
  // string concatenation (GCC PR105651).
  auto name = [&names](int v) -> std::string {
    if (v < static_cast<int>(names.size())) return names[v];
    std::string fallback("X");
    fallback += std::to_string(v);
    return fallback;
  };
  std::ostringstream os;
  for (size_t i = 0; i < subgoals_.size(); ++i) {
    if (i > 0) os << " & ";
    os << "E(" << name(subgoals_[i].first) << "," << name(subgoals_[i].second)
       << ")";
  }
  const ConditionAtoms atoms = Atoms();
  for (const auto& [a, b] : atoms.less) {
    os << " & " << name(a) << "<" << name(b);
  }
  for (const auto& [a, b] : atoms.unordered) {
    os << " & " << name(a) << "!=" << name(b);
  }
  if (!ConditionIsPartialOrderExact()) {
    os << " [order-set: " << allowed_orders_.size() << " orders]";
  }
  return os.str();
}

}  // namespace smr
