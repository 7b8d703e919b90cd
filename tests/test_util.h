#ifndef SMR_TESTS_TEST_UTIL_H_
#define SMR_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
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

}  // namespace smr

#endif  // SMR_TESTS_TEST_UTIL_H_
