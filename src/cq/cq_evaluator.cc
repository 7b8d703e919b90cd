#include "cq/cq_evaluator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace smr {

namespace {

enum class StepKind { kAnchored, kEdgeSeed, kFree };

/// One step of the join plan. An anchored step binds `var` from the
/// adjacency of `anchor_var` (successors if the connecting subgoal is
/// (anchor, var), predecessors if it is (var, anchor)) and then verifies
/// `check_subgoals`. When the CQ has several connected components, an
/// edge-seed step instead binds (var, var2) by scanning the whole oriented
/// edge list, starting the next component. A free step binds a variable in
/// no subgoal at all (an isolated pattern node) by scanning every node.
struct PlanStep {
  StepKind kind = StepKind::kAnchored;
  int var = -1;
  int var2 = -1;       // kEdgeSeed only
  int anchor_var = -1;
  bool anchor_is_smaller = false;  // true: subgoal (anchor, var)
  std::vector<std::pair<int, int>> check_subgoals;
  /// Edge-seed and free steps: the order atoms (a, b), X_a < X_b, whose
  /// later-bound variable this step binds, tested explicitly.
  std::vector<std::pair<int, int>> atoms;
  /// Anchored steps: bound variables that `var` must follow / precede, from
  /// this step's atoms and check subgoals. They bound the rank window of
  /// the candidate list instead of being tested per candidate.
  std::vector<int> after;
  std::vector<int> before;
};

struct JoinPlan {
  int seed_a = -1;  // first subgoal: E(X_seed_a, X_seed_b)
  int seed_b = -1;
  std::vector<PlanStep> steps;  // free steps last
};

JoinPlan BuildPlan(const ConjunctiveQuery& cq) {
  JoinPlan plan;
  const auto& subgoals = cq.subgoals();
  std::vector<bool> bound(cq.num_vars(), false);
  std::vector<bool> used_subgoal(subgoals.size(), false);

  plan.seed_a = subgoals[0].first;
  plan.seed_b = subgoals[0].second;
  bound[plan.seed_a] = bound[plan.seed_b] = true;
  used_subgoal[0] = true;

  while (true) {
    // Prefer a subgoal with exactly one bound endpoint; if none exists but
    // unused subgoals remain, the CQ has another connected component — seed
    // it from the edge list.
    int chosen = -1;
    int unseeded = -1;
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [a, b] = subgoals[s];
      if (bound[a] != bound[b]) {
        chosen = static_cast<int>(s);
        break;
      }
      if (unseeded < 0 && !bound[a] && !bound[b]) {
        unseeded = static_cast<int>(s);
      }
    }
    if (chosen < 0 && unseeded < 0) break;
    PlanStep step;
    if (chosen >= 0) {
      const auto [a, b] = subgoals[chosen];
      step.anchor_is_smaller = bound[a];
      step.anchor_var = bound[a] ? a : b;
      step.var = bound[a] ? b : a;
      used_subgoal[chosen] = true;
      bound[step.var] = true;
    } else {
      const auto [a, b] = subgoals[unseeded];
      step.kind = StepKind::kEdgeSeed;
      step.var = a;
      step.var2 = b;
      used_subgoal[unseeded] = true;
      bound[a] = bound[b] = true;
    }
    // Any other not-yet-used subgoal whose endpoints are now both bound
    // becomes a check at this step.
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [x, y] = subgoals[s];
      if (bound[x] && bound[y]) {
        step.check_subgoals.push_back(subgoals[s]);
        used_subgoal[s] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  for (int v = 0; v < cq.num_vars(); ++v) {
    if (bound[v]) continue;
    PlanStep step;
    step.kind = StepKind::kFree;
    step.var = v;
    plan.steps.push_back(std::move(step));
  }

  // Attach each order atom to the step binding its later variable. Atoms
  // between the two seed variables need no test: the seed subgoal already
  // orders them, and a contradicting atom is left to the final selection.
  std::vector<size_t> bound_at(cq.num_vars(), 0);  // 0 = seed, i+1 = step i
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    bound_at[plan.steps[i].var] = i + 1;
    if (plan.steps[i].var2 >= 0) bound_at[plan.steps[i].var2] = i + 1;
  }
  for (const auto& [a, b] : cq.Atoms().less) {
    const size_t at = std::max(bound_at[a], bound_at[b]);
    if (at == 0) continue;
    PlanStep& step = plan.steps[at - 1];
    if (step.kind != StepKind::kAnchored) {
      step.atoms.emplace_back(a, b);
    } else if (b == step.var) {
      step.after.push_back(a);
    } else {
      step.before.push_back(b);
    }
  }
  for (PlanStep& step : plan.steps) {
    if (step.kind != StepKind::kAnchored) continue;
    for (const auto& [x, y] : step.check_subgoals) {
      if (y == step.var) step.after.push_back(x);
      if (x == step.var) step.before.push_back(y);
    }
  }
  return plan;
}

/// Checks `ownership` against the evaluator's order and returns where each
/// colour's ranks start: colour c holds ranks [begin[c], begin[c + 1]).
std::vector<uint32_t> ColourRanks(const Ownership& ownership,
                                  const NodeOrder& order) {
  const NodeId n = order.num_nodes();
  if (ownership.colour.size() != n) {
    throw std::invalid_argument(
        "ownership needs one colour per graph node: got " +
        std::to_string(ownership.colour.size()) + " for " +
        std::to_string(n) + " nodes");
  }
  const int colours = static_cast<int>(ownership.quota.size());
  for (const int q : ownership.quota) {
    if (q < 0) throw std::invalid_argument("ownership quota is negative");
  }
  std::vector<int> colour_of_rank(n);
  std::vector<uint32_t> begin(colours + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const int c = ownership.colour[u];
    if (c < 0 || c >= colours) {
      throw std::invalid_argument("ownership colour " + std::to_string(c) +
                                  " of node " + std::to_string(u) +
                                  " is outside [0, " +
                                  std::to_string(colours) + ")");
    }
    colour_of_rank[order.Rank(u)] = c;
    ++begin[c + 1];
  }
  for (NodeId r = 1; r < n; ++r) {
    if (colour_of_rank[r] < colour_of_rank[r - 1]) {
      throw std::invalid_argument(
          "ownership colours must be nondecreasing along the node order");
    }
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  return begin;
}

struct EvalState {
  const ConjunctiveQuery* cq;
  const Graph* graph;
  const NodeOrder* order;
  const OrientedAdjacency* successors;
  const OrientedAdjacency* predecessors;
  const JoinPlan* plan;
  InstanceSink* sink;
  CostCounter* cost;  // never null: a dummy when the caller passed none
  // Ownership: null `colour` means the join is unowned.
  const int* colour = nullptr;
  std::vector<int> quota;  // what is left of each colour's quota
  const std::vector<uint32_t>* colour_begin = nullptr;
  std::vector<NodeId> assignment;
  std::vector<bool> bound;
  std::vector<int> scratch_order;
  uint64_t found = 0;

  bool SubgoalHolds(int a, int b) {
    ++cost->index_probes;
    return order->Less(assignment[a], assignment[b]) &&
           graph->HasEdge(assignment[a], assignment[b]);
  }

  bool ChecksHold(const PlanStep& step) {
    for (const auto& [a, b] : step.check_subgoals) {
      if (!SubgoalHolds(a, b)) return false;
    }
    return true;
  }

  bool AtomsHold(const PlanStep& step) const {
    for (const auto& [a, b] : step.atoms) {
      if (!order->Less(assignment[a], assignment[b])) return false;
    }
    return true;
  }

  bool Distinct(NodeId node) const {
    for (size_t x = 0; x < assignment.size(); ++x) {
      if (bound[x] && assignment[x] == node) return false;
    }
    return true;
  }

  /// Spends one unit of `node`'s colour quota; false if it is exhausted.
  bool Spend(NodeId node) {
    if (colour == nullptr) return true;
    int& left = quota[colour[node]];
    if (left == 0) return false;
    --left;
    return true;
  }

  void Refund(NodeId node) {
    if (colour != nullptr) ++quota[colour[node]];
  }

  void EmitIfAllowed() {
    // Induced total order of the variables, smallest node first.
    scratch_order.resize(assignment.size());
    std::iota(scratch_order.begin(), scratch_order.end(), 0);
    std::sort(scratch_order.begin(), scratch_order.end(), [this](int a, int b) {
      return order->Less(assignment[a], assignment[b]);
    });
    ++cost->candidates;
    if (!cq->OrderAllowed(scratch_order)) return;
    ++found;
    ++cost->outputs;
    if (sink != nullptr) sink->Emit(assignment);
  }

  /// The part of an anchored step's candidate list whose ranks lie in
  /// [lo, hi). Successor lists ascend by rank and predecessor lists
  /// descend, so the part is contiguous.
  std::span<const NodeId> Window(const PlanStep& step,
                                 std::span<const NodeId> list, uint32_t lo,
                                 uint32_t hi) const {
    const NodeOrder& ord = *order;
    const uint32_t n = ord.num_nodes();
    auto first = list.begin();
    auto last = list.end();
    if (step.anchor_is_smaller) {
      if (lo > 0) {
        first = std::partition_point(
            first, last, [&](NodeId x) { return ord.Rank(x) < lo; });
      }
      if (hi < n) {
        last = std::partition_point(
            first, last, [&](NodeId x) { return ord.Rank(x) < hi; });
      }
    } else {
      if (hi < n) {
        first = std::partition_point(
            first, last, [&](NodeId x) { return ord.Rank(x) >= hi; });
      }
      if (lo > 0) {
        last = std::partition_point(
            first, last, [&](NodeId x) { return ord.Rank(x) >= lo; });
      }
    }
    return {first, last};
  }

  void Step(size_t depth) {
    if (depth == plan->steps.size()) {
      EmitIfAllowed();
      return;
    }
    const PlanStep& step = plan->steps[depth];
    switch (step.kind) {
      case StepKind::kAnchored:
        BindAnchored(step, depth);
        return;
      case StepKind::kEdgeSeed:
        BindEdgeSeed(step, depth);
        return;
      case StepKind::kFree:
        BindFree(step, depth);
        return;
    }
  }

  void BindAnchored(const PlanStep& step, size_t depth) {
    uint32_t lo = 0;
    uint32_t hi = order->num_nodes();
    for (const int u : step.after) {
      lo = std::max(lo, order->Rank(assignment[u]) + 1);
    }
    for (const int u : step.before) {
      hi = std::min(hi, order->Rank(assignment[u]));
    }
    if (colour != nullptr) {
      // The colours that still have quota span one rank range. Some colour
      // has quota left, since a variable is still unbound.
      size_t first = 0;
      while (quota[first] == 0) ++first;
      size_t last = quota.size() - 1;
      while (quota[last] == 0) --last;
      lo = std::max(lo, (*colour_begin)[first]);
      hi = std::min(hi, (*colour_begin)[last + 1]);
    }
    if (lo >= hi) return;
    const NodeId anchor_node = assignment[step.anchor_var];
    const auto candidates =
        Window(step,
               step.anchor_is_smaller ? successors->Successors(anchor_node)
                                      : predecessors->Successors(anchor_node),
               lo, hi);
    for (const NodeId node : candidates) {
      ++cost->candidates;
      if (!Distinct(node) || !Spend(node)) continue;
      assignment[step.var] = node;
      bound[step.var] = true;
      if (ChecksHold(step)) Step(depth + 1);
      bound[step.var] = false;
      Refund(node);
    }
  }

  void BindEdgeSeed(const PlanStep& step, size_t depth) {
    for (const Edge& e : graph->edges()) {
      ++cost->candidates;
      const Edge oriented = order->Orient(e);
      if (!Distinct(oriented.first) || !Distinct(oriented.second)) continue;
      if (!Spend(oriented.first)) continue;
      if (!Spend(oriented.second)) {
        Refund(oriented.first);
        continue;
      }
      assignment[step.var] = oriented.first;
      assignment[step.var2] = oriented.second;
      bound[step.var] = bound[step.var2] = true;
      if (AtomsHold(step) && ChecksHold(step)) Step(depth + 1);
      bound[step.var] = bound[step.var2] = false;
      Refund(oriented.first);
      Refund(oriented.second);
    }
  }

  void BindFree(const PlanStep& step, size_t depth) {
    for (NodeId node = 0; node < graph->num_nodes(); ++node) {
      if (!Distinct(node) || !Spend(node)) continue;
      assignment[step.var] = node;
      bound[step.var] = true;
      if (AtomsHold(step)) Step(depth + 1);
      bound[step.var] = false;
      Refund(node);
    }
  }
};

}  // namespace

Ownership Ownership::ForBuckets(std::span<const int> own,
                                std::span<const NodeId> local_to_global,
                                const BucketHasher& hasher) {
  Ownership ownership;
  std::vector<int> distinct;
  for (const int bucket : own) {
    if (distinct.empty() || distinct.back() != bucket) {
      distinct.push_back(bucket);
      ownership.quota.push_back(0);
    }
    ++ownership.quota.back();
  }
  ownership.colour.reserve(local_to_global.size());
  for (const NodeId node : local_to_global) {
    const int bucket = hasher.Bucket(node);
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), bucket);
    if (it == distinct.end() || *it != bucket) {
      throw std::invalid_argument("node " + std::to_string(node) +
                                  " lies in bucket " + std::to_string(bucket) +
                                  ", outside the reducer's bucket multiset");
    }
    ownership.colour.push_back(static_cast<int>(it - distinct.begin()));
  }
  return ownership;
}

void Ownership::RequireOwned(std::span<const NodeId> assignment,
                             std::string_view reducer, uint64_t key) const {
  // Per-colour counts, compared without allocating: every colour used as
  // often as its quota allows means the multisets are equal.
  bool owned = true;
  for (size_t c = 0; c < quota.size() && owned; ++c) {
    int used = 0;
    for (const NodeId node : assignment) {
      used += colour[node] == static_cast<int>(c) ? 1 : 0;
    }
    owned = used == quota[c];
  }
  if (owned) return;
  std::string message(reducer);
  message += " reducer ";
  message += std::to_string(key);
  message += " produced an instance outside its bucket multiset";
  throw std::logic_error(message);
}

CqEvaluator::CqEvaluator(const Graph& graph, NodeOrder order)
    : graph_(&graph),
      order_(std::move(order)),
      successors_(graph, order_),
      predecessors_(graph, order_.Reversed()) {}

uint64_t CqEvaluator::Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                               CostCounter* cost,
                               const Ownership* ownership) const {
  return EvaluateAll({&cq, 1}, sink, cost, ownership);
}

uint64_t CqEvaluator::EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                                  InstanceSink* sink, CostCounter* cost,
                                  const Ownership* ownership) const {
  std::vector<uint32_t> colour_begin;
  int quota_total = 0;
  if (ownership != nullptr) {
    colour_begin = ColourRanks(*ownership, order_);
    quota_total = std::accumulate(ownership->quota.begin(),
                                  ownership->quota.end(), 0);
  }
  CostCounter dummy;
  uint64_t total = 0;
  for (const ConjunctiveQuery& cq : cqs) {
    if (ownership != nullptr && quota_total != cq.num_vars()) {
      throw std::invalid_argument(
          "ownership quotas total " + std::to_string(quota_total) +
          ", not the CQ's " + std::to_string(cq.num_vars()) + " variables");
    }
    if (cq.subgoals().empty()) continue;
    const JoinPlan plan = BuildPlan(cq);
    EvalState state;
    state.cq = &cq;
    state.graph = graph_;
    state.order = &order_;
    state.successors = &successors_;
    state.predecessors = &predecessors_;
    state.plan = &plan;
    state.sink = sink;
    state.cost = cost != nullptr ? cost : &dummy;
    if (ownership != nullptr) {
      state.colour = ownership->colour.data();
      state.quota = ownership->quota;
      state.colour_begin = &colour_begin;
    }
    state.assignment.assign(cq.num_vars(), 0);
    state.bound.assign(cq.num_vars(), false);

    for (const Edge& e : graph_->edges()) {
      ++state.cost->edges_scanned;
      const Edge oriented = order_.Orient(e);
      if (!state.Spend(oriented.first)) continue;
      if (!state.Spend(oriented.second)) {
        state.Refund(oriented.first);
        continue;
      }
      state.assignment[plan.seed_a] = oriented.first;
      state.assignment[plan.seed_b] = oriented.second;
      state.bound[plan.seed_a] = state.bound[plan.seed_b] = true;
      state.Step(0);
      state.bound[plan.seed_a] = state.bound[plan.seed_b] = false;
      state.Refund(oriented.first);
      state.Refund(oriented.second);
    }
    total += state.found;
  }
  return total;
}

}  // namespace smr
