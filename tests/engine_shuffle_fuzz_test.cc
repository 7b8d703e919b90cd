// Seeded randomized property test for the engine's shuffle: arbitrary
// map/reduce functions run through the partitioned shuffle at 1/2/4/8
// threads and several partition counts (1 = one global partition, auto,
// 3, 64) must produce metrics and sink emissions byte-identical to the
// test-side ReferenceRound (one serial map, one stable_sort) — including
// the counting-sink fast path and the exception path. This is the
// determinism contract the strategies and every downstream experiment
// rest on.

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/job.h"
#include "tests/test_util.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

const unsigned kThreadCounts[] = {1, 2, 4, 8};
const unsigned kPartitionCounts[] = {0 /* auto */, 1, 3, 64};

/// One randomized round: inputs are ints, and the map/reduce callbacks are
/// pure functions of (input, spec) so every engine sees the same round.
/// (Named FuzzRound: RoundSpec is the engine's declarative descriptor.)
struct FuzzRound {
  uint64_t seed = 0;
  uint64_t key_space = 0;  // 0 = undeclared (radix partitioning).
  size_t num_inputs = 0;
  bool emit_stray_keys = false;  // Occasionally key >= key_space.
};

std::vector<int> MakeInputs(const FuzzRound& spec) {
  std::vector<int> inputs(spec.num_inputs);
  Rng rng(spec.seed);
  for (int& value : inputs) value = static_cast<int>(rng.Below(1 << 20));
  return inputs;
}

uint64_t KeyFor(const FuzzRound& spec, int input, int emission) {
  const uint64_t h =
      SplitMix64(static_cast<uint64_t>(input) * 1315423911u + emission +
                 spec.seed);
  if (spec.key_space == 0) return h;  // Anywhere in 64 bits.
  if (spec.emit_stray_keys && h % 13 == 0) {
    // Key outside the declared space: the partitioner must clamp it into
    // the last partition without breaking the ordered replay. Alternate
    // between barely-over and astronomically-over keys — the latter once
    // slipped past the clamp when the partition quotient was narrowed to
    // 32 bits before comparison.
    return h % 2 == 0 ? spec.key_space + h % 5
                      : (uint64_t{1} << 63) + h % 1000;
  }
  return h % spec.key_space;
}

RoundSpec<int, int> MakeRound(const FuzzRound& spec) {
  auto map_fn = [spec](const int& input, Emitter<int>* out) {
    const unsigned emissions =
        SplitMix64(static_cast<uint64_t>(input) ^ spec.seed) % 4;
    for (unsigned e = 0; e < emissions; ++e) {
      out->Emit(KeyFor(spec, input, e), input + static_cast<int>(e));
    }
  };
  auto reduce_fn = [](uint64_t key, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->edges_scanned += values.size();
    context->cost->index_probes += key % 5;
    for (const int v : values) {
      if (v % 3 == 0) {
        const NodeId node = static_cast<NodeId>(v);
        context->EmitInstance(std::span<const NodeId>(&node, 1));
      }
    }
  };
  return RoundSpec<int, int>{"fuzz", map_fn, reduce_fn, spec.key_space, {}};
}

MapReduceMetrics RunSpec(const FuzzRound& spec, const std::vector<int>& inputs,
                         InstanceSink* sink, const ExecutionPolicy& policy) {
  JobDriver driver(policy);
  return driver.RunRound(MakeRound(spec), inputs, sink);
}

std::vector<ExecutionPolicy> AllPolicies() {
  std::vector<ExecutionPolicy> policies;
  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      policies.push_back(
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions));
    }
  }
  return policies;
}

std::string Describe(const ExecutionPolicy& policy) {
  return "threads=" + std::to_string(policy.num_threads) +
         " partitions=" + std::to_string(policy.shuffle_partitions);
}

TEST(EngineShuffleFuzz, AllEnginesAgreeOnRandomRounds) {
  std::vector<FuzzRound> specs;
  Rng rng(0xf00d);
  for (uint64_t trial = 0; trial < 12; ++trial) {
    FuzzRound spec;
    spec.seed = rng.Next();
    const uint64_t key_spaces[] = {0,    1,      7,
                                   1000, 100000, uint64_t{1} << 62};
    spec.key_space = key_spaces[trial % 6];
    spec.num_inputs = rng.Below(800);
    spec.emit_stray_keys = trial % 2 == 0;
    specs.push_back(spec);
  }
  // Degenerate rounds stay in the matrix too.
  specs.push_back(FuzzRound{1, 10, 0, false});   // No inputs.
  specs.push_back(FuzzRound{2, 1, 300, false});  // Single reducer.

  for (const FuzzRound& spec : specs) {
    const std::vector<int> inputs = MakeInputs(spec);
    CollectingSink reference_sink;
    const MapReduceMetrics reference = ReferenceRound(
        MakeRound(spec), std::span<const int>(inputs), &reference_sink);

    for (const ExecutionPolicy& policy : AllPolicies()) {
      CollectingSink sink;
      const MapReduceMetrics metrics = RunSpec(spec, inputs, &sink, policy);
      EXPECT_EQ(metrics, reference)
          << Describe(policy) << " key_space=" << spec.key_space;
      EXPECT_EQ(sink.assignments(), reference_sink.assignments())
          << Describe(policy) << " key_space=" << spec.key_space;
    }
  }
}

TEST(EngineShuffleFuzz, CountingSinkPathMatchesBufferedPath) {
  FuzzRound spec;
  spec.seed = 0xc0de;
  spec.key_space = 5000;
  spec.num_inputs = 600;
  spec.emit_stray_keys = true;
  const std::vector<int> inputs = MakeInputs(spec);

  CollectingSink reference_sink;
  ReferenceRound(MakeRound(spec), std::span<const int>(inputs),
                 &reference_sink);

  for (const ExecutionPolicy& policy : AllPolicies()) {
    CountingSink counting;
    const MapReduceMetrics metrics = RunSpec(spec, inputs, &counting, policy);
    EXPECT_EQ(counting.count(), reference_sink.assignments().size())
        << Describe(policy);
    EXPECT_EQ(metrics.outputs, counting.count()) << Describe(policy);
  }
}

TEST(EngineShuffleFuzz, ReducerExceptionsSurfaceUnderEveryEngine) {
  std::vector<int> inputs(200);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  auto map_fn = [](const int& value, Emitter<int>* out) {
    out->Emit(static_cast<uint64_t>(value % 23), value);
  };
  auto reduce_fn = [](uint64_t key, std::span<const int>, ReduceContext*) {
    if (key == 11) throw std::runtime_error("reducer 11 failed");
  };
  for (const ExecutionPolicy& policy : AllPolicies()) {
    const auto run = [&] {
      JobDriver driver(policy);
      driver.RunRound(RoundSpec<int, int>{"throwing-reduce", map_fn,
                                          reduce_fn, 23, {}},
                      inputs, nullptr);
    };
    EXPECT_THROW(run(), std::runtime_error) << Describe(policy);
  }
}

TEST(EngineShuffleFuzz, MapperExceptionsSurfaceUnderEveryEngine) {
  std::vector<int> inputs(100);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  auto map_fn = [](const int& value, Emitter<int>* out) {
    if (value == 63) throw std::runtime_error("mapper 63 failed");
    out->Emit(static_cast<uint64_t>(value), value);
  };
  auto reduce_fn = [](uint64_t, std::span<const int>, ReduceContext*) {};
  for (const ExecutionPolicy& policy : AllPolicies()) {
    const auto run = [&] {
      JobDriver driver(policy);
      driver.RunRound(RoundSpec<int, int>{"throwing-map", map_fn, reduce_fn,
                                          100, {}},
                      inputs, nullptr);
    };
    EXPECT_THROW(run(), std::runtime_error) << Describe(policy);
  }
}

TEST(EngineInternals, KeyPartitionerClampsFarStrayKeysMonotonically) {
  // Regression: with key_space=2^16 and 8 partitions, key 2^58 has
  // partition quotient exactly 2^32 — narrowing the quotient to 32 bits
  // before the clamp wrapped it to partition 0, routing the largest key
  // below the smallest and breaking the ordered replay. Far-out keys must
  // land in the last partition, and the key -> partition map must be
  // monotone over the whole 64-bit range.
  const KeyPartitioner partitioner(8, uint64_t{1} << 16);
  EXPECT_EQ(partitioner.PartitionOf(uint64_t{1} << 58), 7u);
  const uint64_t keys[] = {0,     1,          60000,          65535,
                           65536, 1 << 20,    uint64_t{1} << 45,
                           uint64_t{1} << 58, uint64_t{1} << 63, UINT64_MAX};
  unsigned previous = 0;
  for (const uint64_t key : keys) {
    const unsigned partition = partitioner.PartitionOf(key);
    EXPECT_GE(partition, previous) << "key=" << key;
    EXPECT_LT(partition, 8u) << "key=" << key;
    previous = partition;
  }
}

TEST(EngineInternals, SliceBoundariesDoesNotOverflowOnHugeSizes) {
  // size * t wraps size_t once size > SIZE_MAX / parts; the boundaries must
  // still be exact (monotone, near-equal slices, endpoints pinned).
  const size_t size = std::numeric_limits<size_t>::max();
  for (const unsigned parts : {2u, 7u, 64u}) {
    const std::vector<size_t> bounds =
        engine_internal::SliceBoundaries(size, parts);
    ASSERT_EQ(bounds.size(), parts + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), size);
    for (unsigned t = 0; t < parts; ++t) {
      ASSERT_LE(bounds[t], bounds[t + 1]);
      const size_t slice = bounds[t + 1] - bounds[t];
      EXPECT_GE(slice, size / parts);
      EXPECT_LE(slice, size / parts + 1);
    }
  }
}

TEST(EngineInternals, SliceBoundariesSmallSizesUnchanged) {
  // The 128-bit fix must not perturb the boundaries for ordinary sizes.
  const std::vector<size_t> bounds = engine_internal::SliceBoundaries(10, 4);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 2, 5, 7, 10}));
}

}  // namespace
}  // namespace smr
