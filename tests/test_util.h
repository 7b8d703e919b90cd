#ifndef SMR_TESTS_TEST_UTIL_H_
#define SMR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/round.h"
#include "serial/matcher.h"

namespace smr {

/// Canonical sorted multiset of instance keys from a collecting sink.
inline std::vector<InstanceKey> KeysOf(const CollectingSink& sink,
                                       const SampleGraph& pattern) {
  return sink.Keys(pattern.edges());
}

/// Ground-truth instance keys via the reference serial matcher.
inline std::vector<InstanceKey> GroundTruthKeys(const SampleGraph& pattern,
                                                const Graph& graph) {
  CollectingSink sink;
  EnumerateInstances(pattern, graph, &sink, nullptr);
  return KeysOf(sink, pattern);
}

/// FNV-1a over the bytes of every node id of every assignment, in order:
/// a fingerprint of an emitted instance stream, order included.
inline uint64_t Fnv1a(const std::vector<std::vector<NodeId>>& assignments) {
  uint64_t hash = 14695981039346656037ull;
  for (const auto& assignment : assignments) {
    for (const NodeId node : assignment) {
      for (int shift = 0; shift < 32; shift += 8) {
        hash ^= (node >> shift) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

/// Independent oracle for one declared round, kept apart from the
/// engine's shuffle: every input is mapped serially into one flat pair
/// vector (folding through the combiner when `combine` is on), the vector
/// is grouped by a single std::stable_sort on the key, and the groups are
/// reduced in order. Differential grids compare every ExecutionPolicy's
/// metrics and emissions against this round.
template <typename Input, typename Value>
MapReduceMetrics ReferenceRound(
    const RoundSpec<Input, Value>& spec,
    std::span<const std::type_identity_t<Input>> inputs, InstanceSink* sink,
    InstanceSink* records = nullptr, bool combine = true) {
  using Pair = std::pair<uint64_t, Value>;
  MapReduceMetrics metrics;
  metrics.input_records = inputs.size();
  metrics.key_space = spec.key_space;
  const auto* combiner =
      (combine && spec.combiner) ? &spec.combiner : nullptr;
  std::vector<Pair> pairs;
  Emitter<Value> emitter(&pairs, combiner);
  for (const Input& input : inputs) spec.mapper(input, &emitter);
  engine_internal::CountMapPhase<Value>(emitter.emitted(), pairs.size(),
                                        &metrics);
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) {
                     return a.first < b.first;
                   });
  engine_internal::ReduceRange(pairs, 0, pairs.size(), spec.reducer,
                               combiner, sink, records, &metrics);
  return metrics;
}

}  // namespace smr

#endif  // SMR_TESTS_TEST_UTIL_H_
