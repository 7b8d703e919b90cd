#include "cq/cq_evaluator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/intersect.h"
#include "graph/rank_window.h"

namespace smr {

namespace {

enum class StepKind { kAnchored, kEdgeSeed, kFree };

/// One step of the join plan. An edge-seed step binds the subgoal
/// (var, var2) by scanning the whole edge list; it starts the join and
/// every further connected component of the CQ. An anchored step binds
/// `var` from the neighbours of `anchor_var` (above the anchor's rank if
/// the connecting subgoal is (anchor, var), below it if it is (var,
/// anchor)) and closes the subgoals to the bound `partners` by
/// intersecting their neighbour windows. A free step binds a variable in
/// no subgoal at all (an isolated pattern node) by scanning every rank of
/// its window, ascending.
struct PlanStep {
  StepKind kind = StepKind::kAnchored;
  int var = -1;
  int var2 = -1;       // kEdgeSeed only
  int anchor_var = -1;
  bool anchor_is_smaller = false;  // true: subgoal (anchor, var)
  /// Anchored steps: the other bound variables `var` shares a subgoal
  /// with. Each one's neighbour window is intersected into the candidates.
  std::vector<int> partners;
  /// Edge-seed and free steps: the order atoms (a, b), X_a < X_b, whose
  /// later-bound variable this step binds, tested explicitly.
  std::vector<std::pair<int, int>> atoms;
  /// Anchored steps: bound variables that `var` must follow / precede, from
  /// this step's atoms and subgoals. They bound the rank window of every
  /// neighbour list instead of being tested per candidate.
  std::vector<int> after;
  std::vector<int> before;
  /// Variables bound before this step whose node the new one(s) must
  /// differ from. At an anchored step the window already excludes the
  /// nodes of `after` and `before`, so only the rest are compared.
  std::vector<int> distinct_from;
};

/// Orders the join so cycles close early. The seed is the subgoal whose
/// endpoints have the largest summed pattern degree; each later step binds
/// the variable with the most bound pattern neighbours, so a triangle
/// through a hub closes before a pendant edge is expanded. Ties go to the
/// first subgoal in sorted order, which leaves the plans of the
/// degree-regular patterns (triangle, square, cliques, cycles) and of
/// Path(3) and stars as the subgoal order gives them.
std::vector<PlanStep> BuildPlan(
    const ConjunctiveQuery& cq,
    const std::vector<std::pair<int, int>>& entailed) {
  std::vector<PlanStep> plan;
  const auto& subgoals = cq.subgoals();
  const int p = cq.num_vars();
  std::vector<int> degree(p, 0);
  for (const auto& [a, b] : subgoals) {
    ++degree[a];
    ++degree[b];
  }
  std::vector<bool> bound(p, false);
  std::vector<bool> used_subgoal(subgoals.size(), false);
  auto seed_step = [&](size_t s) {
    PlanStep step;
    step.kind = StepKind::kEdgeSeed;
    step.var = subgoals[s].first;
    step.var2 = subgoals[s].second;
    used_subgoal[s] = true;
    bound[step.var] = bound[step.var2] = true;
    return step;
  };
  auto bound_neighbours = [&](int v) {
    int count = 0;
    for (const auto& [x, y] : subgoals) {
      if ((x == v && bound[y]) || (y == v && bound[x])) ++count;
    }
    return count;
  };

  size_t seed = 0;
  for (size_t s = 1; s < subgoals.size(); ++s) {
    if (degree[subgoals[s].first] + degree[subgoals[s].second] >
        degree[subgoals[seed].first] + degree[subgoals[seed].second]) {
      seed = s;
    }
  }
  plan.push_back(seed_step(seed));
  while (true) {
    // Prefer a subgoal with exactly one bound endpoint, the unbound one
    // having the most bound neighbours; if none exists but unused subgoals
    // remain, the CQ has another connected component — seed it from the
    // edge list. A fresh component's seed edge closes nothing.
    int chosen = -1;
    int chosen_neighbours = 0;
    int unseeded = -1;
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [a, b] = subgoals[s];
      if (bound[a] != bound[b]) {
        const int neighbours = bound_neighbours(bound[a] ? b : a);
        if (neighbours > chosen_neighbours) {
          chosen = static_cast<int>(s);
          chosen_neighbours = neighbours;
        }
      } else if (unseeded < 0 && !bound[a] && !bound[b]) {
        unseeded = static_cast<int>(s);
      }
    }
    if (chosen < 0 && unseeded < 0) break;
    if (chosen < 0) {
      plan.push_back(seed_step(unseeded));
      continue;
    }
    PlanStep step;
    const auto [a, b] = subgoals[chosen];
    step.anchor_is_smaller = bound[a];
    step.anchor_var = bound[a] ? a : b;
    step.var = bound[a] ? b : a;
    used_subgoal[chosen] = true;
    (step.anchor_is_smaller ? step.after : step.before)
        .push_back(step.anchor_var);
    // Every other subgoal between `var` and a bound variable closes here.
    // Its orientation bounds the window like the anchor's.
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used_subgoal[s]) continue;
      const auto [x, y] = subgoals[s];
      if (x == step.var && bound[y]) {
        step.partners.push_back(y);
        step.before.push_back(y);
        used_subgoal[s] = true;
      } else if (y == step.var && bound[x]) {
        step.partners.push_back(x);
        step.after.push_back(x);
        used_subgoal[s] = true;
      }
    }
    bound[step.var] = true;
    plan.push_back(std::move(step));
  }
  for (int v = 0; v < p; ++v) {
    if (bound[v]) continue;
    PlanStep step;
    step.kind = StepKind::kFree;
    step.var = v;
    plan.push_back(std::move(step));
  }

  // Attach each entailed order pair (the full transitive closure, so
  // X1 < X2 < X3 also cuts X3's window by X1) to the step binding its
  // later variable.
  std::vector<size_t> bound_at(p, 0);
  for (size_t i = 0; i < plan.size(); ++i) {
    bound_at[plan[i].var] = i;
    if (plan[i].var2 >= 0) bound_at[plan[i].var2] = i;
  }
  for (const auto& [a, b] : entailed) {
    PlanStep& step = plan[std::max(bound_at[a], bound_at[b])];
    if (step.kind != StepKind::kAnchored) {
      step.atoms.emplace_back(a, b);
    } else if (b == step.var) {
      step.after.push_back(a);
    } else {
      step.before.push_back(b);
    }
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    PlanStep& step = plan[i];
    for (std::vector<int>* vars : {&step.after, &step.before}) {
      std::sort(vars->begin(), vars->end());
      vars->erase(std::unique(vars->begin(), vars->end()), vars->end());
    }
    for (int v = 0; v < p; ++v) {
      if (bound_at[v] < i &&
          !std::binary_search(step.after.begin(), step.after.end(), v) &&
          !std::binary_search(step.before.begin(), step.before.end(), v)) {
        step.distinct_from.push_back(v);
      }
    }
  }
  return plan;
}

/// An Ownership checked against the evaluator's order, in rank space.
struct RankColours {
  std::vector<int> colour_of_rank;
  /// Colour c holds ranks [begin[c], begin[c + 1]).
  std::vector<uint32_t> begin;
};

RankColours ColourRanks(const Ownership& ownership,
                        std::span<const NodeId> node_of_rank) {
  const NodeId n = static_cast<NodeId>(node_of_rank.size());
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
  RankColours ranks;
  ranks.colour_of_rank.resize(n);
  ranks.begin.assign(colours + 1, 0);
  for (NodeId r = 0; r < n; ++r) {
    const NodeId u = node_of_rank[r];
    const int c = ownership.colour[u];
    if (c < 0 || c >= colours) {
      throw std::invalid_argument("ownership colour " + std::to_string(c) +
                                  " of node " + std::to_string(u) +
                                  " is outside [0, " +
                                  std::to_string(colours) + ")");
    }
    ranks.colour_of_rank[r] = c;
    ++ranks.begin[c + 1];
  }
  for (NodeId r = 1; r < n; ++r) {
    if (ranks.colour_of_rank[r] < ranks.colour_of_rank[r - 1]) {
      throw std::invalid_argument(
          "ownership colours must be nondecreasing along the node order");
    }
  }
  std::partial_sum(ranks.begin.begin(), ranks.begin.end(),
                   ranks.begin.begin());
  return ranks;
}

/// Each variable's owned-colour window (see CqEvaluator): the ranks of the
/// colours own[k] .. own[p-1-j], where `own` is the quota as a sorted
/// colour multiset and the variable has k entailed predecessors and j
/// entailed successors. Variable v may bind ranks [lo[v], hi[v]).
void OwnedColourWindows(const std::vector<int>& quota,
                        const RankColours& colours,
                        const std::vector<std::pair<int, int>>& entailed,
                        std::vector<uint32_t>* lo, std::vector<uint32_t>* hi) {
  std::vector<int> own;
  for (size_t c = 0; c < quota.size(); ++c) {
    own.insert(own.end(), quota[c], static_cast<int>(c));
  }
  const int p = static_cast<int>(own.size());
  std::vector<int> predecessors(p, 0);
  std::vector<int> successors(p, 0);
  for (const auto& [a, b] : entailed) {
    ++successors[a];
    ++predecessors[b];
  }
  for (int v = 0; v < p; ++v) {
    (*lo)[v] = colours.begin[own[predecessors[v]]];
    (*hi)[v] = colours.begin[own[p - 1 - successors[v]] + 1];
  }
}

/// The join's working state. It binds variables to node *ranks*: windows,
/// order atoms, distinctness and ownership are all rank comparisons, and
/// node ids are looked up only to emit.
struct EvalState {
  const ConjunctiveQuery* cq;
  const RankAdjacency* adjacency;
  std::span<const Edge> edges;  // rank pairs, in seed scan order
  const NodeId* node_of_rank;
  const std::vector<PlanStep>* plan;
  InstanceSink* sink;
  CostCounter* cost;  // never null: a dummy when the caller passed none
  // Ownership: null `colour` (indexed by rank) means the join is unowned.
  const int* colour = nullptr;
  std::vector<int> quota;  // what is left of each colour's quota
  const std::vector<uint32_t>* colour_begin = nullptr;
  // Each variable's static rank window [var_lo, var_hi): its owned-colour
  // window under ownership, all ranks otherwise.
  std::vector<uint32_t> var_lo;
  std::vector<uint32_t> var_hi;
  std::vector<uint32_t> rank;  // by variable
  /// Intersection buffers by depth: entries 2 * depth and 2 * depth + 1
  /// belong to the step at `depth` (see EvaluateAll for their sizing).
  std::vector<NodeId>* buffers = nullptr;
  std::vector<std::span<const NodeId>> windows;  // reused by every step
  std::vector<int> scratch_order;
  std::vector<NodeId> assignment;  // node ids, filled at emission
  uint64_t found = 0;

  bool AtomsHold(const PlanStep& step) const {
    for (const auto& [a, b] : step.atoms) {
      if (rank[a] >= rank[b]) return false;
    }
    return true;
  }

  bool InWindow(int var, uint32_t r) const {
    return r >= var_lo[var] && r < var_hi[var];
  }

  bool Distinct(const PlanStep& step, uint32_t r) const {
    for (const int x : step.distinct_from) {
      if (rank[x] == r) return false;
    }
    return true;
  }

  /// Spends one unit of rank `r`'s colour quota; false if it is exhausted.
  bool Spend(uint32_t r) {
    if (colour == nullptr) return true;
    int& left = quota[colour[r]];
    if (left == 0) return false;
    --left;
    return true;
  }

  void Refund(uint32_t r) {
    if (colour != nullptr) ++quota[colour[r]];
  }

  void EmitIfAllowed() {
    // Induced total order of the variables, smallest rank first.
    scratch_order.resize(rank.size());
    std::iota(scratch_order.begin(), scratch_order.end(), 0);
    std::sort(scratch_order.begin(), scratch_order.end(),
              [this](int a, int b) { return rank[a] < rank[b]; });
    ++cost->candidates;
    if (!cq->OrderAllowed(scratch_order)) return;
    ++found;
    ++cost->outputs;
    if (sink == nullptr) return;
    for (size_t x = 0; x < rank.size(); ++x) {
      assignment[x] = node_of_rank[rank[x]];
    }
    sink->Emit(assignment);
  }

  void Step(size_t depth) {
    if (depth == plan->size()) {
      EmitIfAllowed();
      return;
    }
    const PlanStep& step = (*plan)[depth];
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

  /// Binds `step.var` to rank r and recurses, if r is free and owned.
  void TryBind(const PlanStep& step, size_t depth, uint32_t r) {
    ++cost->candidates;
    if (!Distinct(step, r) || !Spend(r)) return;
    rank[step.var] = r;
    Step(depth + 1);
    Refund(r);
  }

  void BindAnchored(const PlanStep& step, size_t depth) {
    uint32_t lo = var_lo[step.var];
    uint32_t hi = var_hi[step.var];
    for (const int u : step.after) lo = std::max(lo, rank[u] + 1);
    for (const int u : step.before) hi = std::min(hi, rank[u]);
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
    std::span<const NodeId> candidates =
        RankWindow(adjacency->Row(rank[step.anchor_var]), lo, hi);
    if (!step.partners.empty() && !candidates.empty()) {
      // Close every partner subgoal by intersection, shortest window first
      // so each merge costs at most the smallest window, priced as the
      // matcher prices its merges: one probe per element of the shorter
      // input.
      windows.assign(1, candidates);
      for (const int u : step.partners) {
        windows.push_back(RankWindow(adjacency->Row(rank[u]), lo, hi));
      }
      std::iter_swap(windows.begin(),
                     std::min_element(windows.begin(), windows.end(),
                                      [](auto a, auto b) {
                                        return a.size() < b.size();
                                      }));
      candidates = windows[0];
      for (size_t i = 1; i < windows.size() && !candidates.empty(); ++i) {
        cost->index_probes += std::min(candidates.size(), windows[i].size());
        NodeId* const out = buffers[2 * depth + (i - 1) % 2].data();
        candidates = {out, IntersectInto(candidates, windows[i], out)};
      }
    }
    // Walk away from the anchor, as its successor (ascending) or
    // predecessor (descending) list would be read.
    if (step.anchor_is_smaller) {
      for (const NodeId r : candidates) TryBind(step, depth, r);
    } else {
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        TryBind(step, depth, *it);
      }
    }
  }

  void BindEdgeSeed(const PlanStep& step, size_t depth) {
    for (const auto& [first, second] : edges) {
      ++cost->edges_scanned;
      if (!InWindow(step.var, first) || !InWindow(step.var2, second)) continue;
      if (!Distinct(step, first) || !Distinct(step, second)) continue;
      if (!Spend(first)) continue;
      if (!Spend(second)) {
        Refund(first);
        continue;
      }
      rank[step.var] = first;
      rank[step.var2] = second;
      if (AtomsHold(step)) Step(depth + 1);
      Refund(first);
      Refund(second);
    }
  }

  void BindFree(const PlanStep& step, size_t depth) {
    for (uint32_t r = var_lo[step.var]; r < var_hi[step.var]; ++r) {
      if (!Distinct(step, r) || !Spend(r)) continue;
      rank[step.var] = r;
      if (AtomsHold(step)) Step(depth + 1);
      Refund(r);
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

CqEvaluator::CqEvaluator(const Graph& graph, const NodeOrder& order)
    : CqEvaluator(graph.num_nodes(), RankEdges(graph, order)) {
  node_of_rank_ = order.NodesByRank();
}

CqEvaluator::CqEvaluator(NodeId num_nodes, std::vector<Edge> edges)
    : edges_(std::move(edges)),
      adjacency_(num_nodes, edges_),
      node_of_rank_(num_nodes) {
  std::iota(node_of_rank_.begin(), node_of_rank_.end(), 0u);
}

uint64_t CqEvaluator::Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                               CostCounter* cost,
                               const Ownership* ownership) const {
  return EvaluateAll({&cq, 1}, sink, cost, ownership);
}

uint64_t CqEvaluator::EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                                  InstanceSink* sink, CostCounter* cost,
                                  const Ownership* ownership) const {
  const NodeId n = static_cast<NodeId>(node_of_rank_.size());
  RankColours colours;
  int quota_total = 0;
  if (ownership != nullptr) {
    colours = ColourRanks(*ownership, node_of_rank_);
    quota_total = std::accumulate(ownership->quota.begin(),
                                  ownership->quota.end(), 0);
  }
  CostCounter dummy;
  // Intersection buffers, shared by every CQ of this call. Only an anchored
  // step with partners intersects: one partner writes one buffer, and a
  // fold over several ping-pongs between two. Each buffer is its own
  // allocation, so an overrun of any of them is a heap overflow a
  // sanitizer sees. An intersection result is at most its shorter input,
  // itself at most the graph's max degree, plus the kernels' slack.
  std::vector<std::vector<NodeId>> buffers;
  const size_t buffer_size = adjacency_.MaxDegree() + kIntersectSlack;
  uint64_t total = 0;
  for (const ConjunctiveQuery& cq : cqs) {
    if (ownership != nullptr && quota_total != cq.num_vars()) {
      throw std::invalid_argument(
          "ownership quotas total " + std::to_string(quota_total) +
          ", not the CQ's " + std::to_string(cq.num_vars()) + " variables");
    }
    if (cq.subgoals().empty()) continue;
    const ConjunctiveQuery::ConditionAtoms atoms = cq.Atoms();
    const std::vector<PlanStep> plan = BuildPlan(cq, atoms.entailed);
    EvalState state;
    state.cq = &cq;
    state.adjacency = &adjacency_;
    state.edges = edges_;
    state.node_of_rank = node_of_rank_.data();
    state.plan = &plan;
    state.sink = sink;
    state.cost = cost != nullptr ? cost : &dummy;
    state.var_lo.assign(cq.num_vars(), 0);
    state.var_hi.assign(cq.num_vars(), n);
    if (ownership != nullptr) {
      state.colour = colours.colour_of_rank.data();
      state.quota = ownership->quota;
      state.colour_begin = &colours.begin;
      OwnedColourWindows(ownership->quota, colours, atoms.entailed,
                         &state.var_lo, &state.var_hi);
    }
    state.rank.assign(cq.num_vars(), 0);
    state.assignment.assign(cq.num_vars(), 0);
    for (size_t depth = 0; depth < plan.size(); ++depth) {
      const size_t needed = std::min<size_t>(plan[depth].partners.size(), 2);
      if (needed == 0) continue;
      if (buffers.size() < 2 * depth + 2) buffers.resize(2 * depth + 2);
      for (size_t j = 0; j < needed; ++j) {
        buffers[2 * depth + j].resize(buffer_size);
      }
    }
    state.buffers = buffers.data();
    state.Step(0);
    total += state.found;
  }
  return total;
}

}  // namespace smr
