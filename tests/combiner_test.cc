// Map-side combiner property tests: on a counting workload, every engine
// configuration (one global partition / automatic partitioning x 1/2/4/8
// threads x combine on/off) must produce identical reducer outputs — same sink
// emissions in the same order, same `outputs` metric — while combining
// strictly lowers the physically shipped pair count
// (ShuffleStats::pairs_shipped) and leaves the model communication cost
// (`key_value_pairs`) untouched.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/triangle_census.h"
#include "graph/generators.h"
#include "mapreduce/job.h"
#include "serial/triangles.h"
#include "tests/test_util.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

const unsigned kThreadCounts[] = {1, 2, 4, 8};
const unsigned kPartitionCounts[] = {1, 0 /* auto */};

std::string Describe(const ExecutionPolicy& policy) {
  return "threads=" + std::to_string(policy.num_threads) +
         " partitions=" + std::to_string(policy.shuffle_partitions) +
         " combine=" + (policy.combine ? "on" : "off");
}

/// The canonical counting round (word-count shape): each input emits a
/// handful of (key, 1) pairs with repeated keys, the SUM combiner folds
/// duplicates, the reducer emits (key, total) as a 2-node instance.
RoundSpec<int, uint64_t> CountingRound(uint64_t key_space) {
  return RoundSpec<int, uint64_t>{
      "count",
      [key_space](const int& input, Emitter<uint64_t>* out) {
        const unsigned emissions =
            1 + SplitMix64(static_cast<uint64_t>(input)) % 4;
        for (unsigned e = 0; e < emissions; ++e) {
          out->Emit(SplitMix64(static_cast<uint64_t>(input) + 31 * e) %
                        key_space,
                    1);
        }
      },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        uint64_t total = 0;
        for (const uint64_t value : values) {
          ++context->cost->edges_scanned;
          total += value;
        }
        const NodeId pair[2] = {static_cast<NodeId>(key),
                                static_cast<NodeId>(total)};
        context->EmitInstance(pair);
      },
      key_space,
      [](uint64_t& acc, const uint64_t& incoming) { acc += incoming; }};
}

TEST(Combiner, CountingWorkloadIdenticalOutputsFewerPairsShipped) {
  // Few keys, many inputs: every map worker hits each key repeatedly, so
  // per-worker pre-aggregation has plenty to fold.
  const uint64_t key_space = 97;
  std::vector<int> inputs(4000);
  Rng rng(0xbeef);
  for (int& value : inputs) value = static_cast<int>(rng.Below(1 << 20));
  const RoundSpec<int, uint64_t> round = CountingRound(key_space);

  // Reference: the test-side reference round, combine off (raw 1s reach
  // the reducers).
  CollectingSink reference_sink;
  const MapReduceMetrics reference =
      ReferenceRound(round, std::span<const int>(inputs), &reference_sink,
                     nullptr, /*combine=*/false);
  ASSERT_GT(reference.outputs, 0u);
  EXPECT_EQ(reference.shuffle.pairs_shipped, reference.key_value_pairs);

  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      for (const bool combine : {false, true}) {
        const ExecutionPolicy policy = ExecutionPolicy::WithThreads(threads)
                                           .WithPartitions(partitions)
                                           .WithCombine(combine);
        CollectingSink sink;
        JobDriver driver(policy);
        const MapReduceMetrics metrics = driver.RunRound(round, inputs, &sink);

        // Reducer outputs are byte-identical to the uncombined serial
        // reference: same totals, same ascending-key emission order.
        EXPECT_EQ(sink.assignments(), reference_sink.assignments())
            << Describe(policy);
        EXPECT_EQ(metrics.outputs, reference.outputs) << Describe(policy);
        EXPECT_EQ(metrics.distinct_keys, reference.distinct_keys)
            << Describe(policy);
        // The model communication cost counts logical emissions and is
        // unaffected by combining.
        EXPECT_EQ(metrics.key_value_pairs, reference.key_value_pairs)
            << Describe(policy);
        if (combine) {
          // The shuffle physically moved strictly fewer pairs (at most one
          // per worker and key), and the reducers saw one folded value.
          EXPECT_LT(metrics.shuffle.pairs_shipped, metrics.key_value_pairs)
              << Describe(policy);
          EXPECT_LE(metrics.shuffle.pairs_shipped,
                    static_cast<uint64_t>(threads) * key_space)
              << Describe(policy);
          EXPECT_EQ(metrics.max_reducer_input, 1u) << Describe(policy);
        } else {
          EXPECT_EQ(metrics.shuffle.pairs_shipped, metrics.key_value_pairs)
              << Describe(policy);
        }
      }
    }
  }
}

TEST(Combiner, CombinedMetricsDeterministicAcrossPolicies) {
  // With combining on, the reduce-side fold hands every reducer exactly
  // one value per key, so even the full semantic metrics (reduce cost,
  // max reducer input, outputs) are policy-independent.
  const RoundSpec<int, uint64_t> round = CountingRound(53);
  std::vector<int> inputs(2500);
  Rng rng(0xfeed);
  for (int& value : inputs) value = static_cast<int>(rng.Below(1 << 18));

  const MapReduceMetrics serial =
      ReferenceRound(round, std::span<const int>(inputs), nullptr);
  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      const ExecutionPolicy policy =
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions);
      JobDriver driver(policy);
      EXPECT_EQ(driver.RunRound(round, inputs, nullptr), serial)
          << Describe(policy);
    }
  }
}

TEST(Combiner, NonCommutativeAssociativeCombinerKeepsEmissionOrderFold) {
  // STRING-CONCAT-like combiner (associative, NOT commutative), modeled as
  // keeping the first-emitted value: the fold must run in serial emission
  // order at every thread count, else the survivor changes.
  const RoundSpec<int, uint64_t> round{
      "keep-first",
      [](const int& input, Emitter<uint64_t>* out) {
        out->Emit(static_cast<uint64_t>(input) % 7,
                  static_cast<uint64_t>(input));
      },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        const NodeId pair[2] = {static_cast<NodeId>(key),
                                static_cast<NodeId>(values.front())};
        context->EmitInstance(pair);
      },
      7,
      [](uint64_t& acc, const uint64_t& incoming) { (void)incoming; (void)acc; }};

  std::vector<int> inputs(500);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(1000 + i);
  }
  CollectingSink reference_sink;
  ReferenceRound(round, std::span<const int>(inputs), &reference_sink);
  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      CollectingSink sink;
      JobDriver driver(
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions));
      driver.RunRound(round, inputs, &sink);
      EXPECT_EQ(sink.assignments(), reference_sink.assignments())
          << "threads=" << threads;
    }
  }
}

TEST(Combiner, TriangleCensusEquivalentWithAndWithoutCombining) {
  // The real counting pipeline: per-node triangle counts must be identical
  // with combining on and off, at every thread count, and match the serial
  // triangle kernel's ground truth; the counting round must ship fewer
  // pairs with combining (3 * #triangles >> #touched nodes here).
  const Graph g = ErdosRenyi(300, 3000, 7);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const uint64_t ground_truth = CountTriangles(g);

  const TriangleCensusResult reference =
      TriangleCensus(g, order, ExecutionPolicy::Serial().WithCombine(false));
  ASSERT_GT(reference.total_triangles, 0u);
  EXPECT_EQ(reference.total_triangles, ground_truth);

  for (const unsigned threads : kThreadCounts) {
    for (const bool combine : {false, true}) {
      const ExecutionPolicy policy =
          ExecutionPolicy::WithThreads(threads).WithCombine(combine);
      const TriangleCensusResult result = TriangleCensus(g, order, policy);
      EXPECT_EQ(result.per_node, reference.per_node)
          << Describe(policy);
      EXPECT_EQ(result.total_triangles, ground_truth) << Describe(policy);
      ASSERT_EQ(result.job.rounds.size(), 3u);
      const MapReduceMetrics& counting = result.job.rounds[2].metrics;
      const MapReduceMetrics& reference_counting =
          reference.job.rounds[2].metrics;
      // Instance counts and model communication cost are combine-invariant.
      EXPECT_EQ(counting.outputs, reference_counting.outputs)
          << Describe(policy);
      EXPECT_EQ(counting.key_value_pairs, reference_counting.key_value_pairs)
          << Describe(policy);
      EXPECT_EQ(counting.key_value_pairs, 3 * ground_truth);
      if (combine) {
        EXPECT_LT(counting.shuffle.pairs_shipped, counting.key_value_pairs)
            << Describe(policy);
      } else {
        EXPECT_EQ(counting.shuffle.pairs_shipped, counting.key_value_pairs)
            << Describe(policy);
      }
    }
  }
}

TEST(Combiner, PolicySwitchDisablesDeclaredCombiner) {
  const RoundSpec<int, uint64_t> round = CountingRound(11);
  std::vector<int> inputs(1000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  JobDriver driver(ExecutionPolicy::WithThreads(4).WithCombine(false));
  const MapReduceMetrics metrics = driver.RunRound(round, inputs, nullptr);
  EXPECT_EQ(metrics.shuffle.pairs_shipped, metrics.key_value_pairs);
  EXPECT_GT(metrics.max_reducer_input, 1u);
}

}  // namespace
}  // namespace smr
