// The sort-free grouping layer (mapreduce/group_by_key.h): unit tests of
// the counting scatter's stability and its automatic sort fallback, a
// property-fuzz grid asserting outputs, order, and semantic metrics
// byte-identical to the test-side ReferenceRound across 1/2/4/8 threads x
// one global partition or automatic partitioning x combine on/off, the
// grouping ShuffleStats, and the empty-round short-circuit regression.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/group_by_key.h"
#include "mapreduce/job.h"
#include "tests/test_util.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

using Pair = std::pair<uint64_t, int>;

std::vector<Pair> Group(std::vector<std::vector<Pair>> buckets,
                        bool* counted) {
  std::vector<std::vector<Pair>*> pointers;
  size_t total = 0;
  for (auto& bucket : buckets) {
    pointers.push_back(&bucket);
    total += bucket.size();
  }
  std::vector<Pair> out;
  std::vector<uint32_t> counts;
  *counted =
      engine_internal::GroupByKey<int>(pointers, total, &out, &counts);
  return out;
}

/// Worker-order concatenation + stable_sort: the grouping every path must
/// reproduce.
std::vector<Pair> StableSorted(const std::vector<std::vector<Pair>>& buckets) {
  std::vector<Pair> out;
  for (const auto& bucket : buckets) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const Pair& a, const Pair& b) {
    return a.first < b.first;
  });
  return out;
}

TEST(GroupByKey, CountingScatterIsStableAndAscending) {
  bool counted = false;
  const std::vector<Pair> grouped = Group(
      {{{5, 1}, {3, 2}, {5, 3}}, {{3, 4}, {4, 5}, {5, 6}}}, &counted);
  EXPECT_TRUE(counted);  // Range 3..5 is dense for 6 pairs.
  const std::vector<Pair> expected = {
      {3, 2}, {3, 4}, {4, 5}, {5, 1}, {5, 3}, {5, 6}};
  EXPECT_EQ(grouped, expected);
}

TEST(GroupByKey, SparseRangeFallsBackToSortWithIdenticalResult) {
  const std::vector<std::vector<Pair>> buckets = {
      {{1000000000, 1}, {0, 2}}, {{1000000000, 3}}};
  bool counted = true;
  const std::vector<Pair> sorted = Group(buckets, &counted);
  EXPECT_FALSE(counted);  // Spread 1e9 >> 4 * 3 pairs.
  EXPECT_EQ(sorted, StableSorted(buckets));
  const std::vector<Pair> expected = {{0, 2}, {1000000000, 1},
                                      {1000000000, 3}};
  EXPECT_EQ(sorted, expected);
}

TEST(GroupByKey, ForcedCountingAcceptsModeratelySparseRanges) {
  // Spread 100 with 3 pairs: beyond the 4x density bound, so the
  // automatic rule takes the sort fallback — with the same grouped order.
  const std::vector<std::vector<Pair>> buckets = {{{107, 1}, {7, 2}},
                                                  {{50, 3}}};
  bool counted = true;
  const std::vector<Pair> grouped = Group(buckets, &counted);
  EXPECT_FALSE(counted);
  EXPECT_EQ(grouped, StableSorted(buckets));
}

TEST(GroupByKey, ForcedCountingStillRefusesAstronomicalRanges) {
  // A stray radix key makes the range ~2^63; grouping must fall back to
  // sort instead of attempting the histogram allocation.
  bool counted = true;
  const std::vector<Pair> grouped =
      Group({{{uint64_t{1} << 63, 1}, {2, 2}}}, &counted);
  EXPECT_FALSE(counted);
  const std::vector<Pair> expected = {{2, 2}, {uint64_t{1} << 63, 1}};
  EXPECT_EQ(grouped, expected);
}

TEST(GroupByKey, EmptyPartition) {
  bool counted = true;
  EXPECT_TRUE(Group({{}, {}}, &counted).empty());
  EXPECT_FALSE(counted);
}

// ---------------------------------------------------------------------------
// Property grid: every (partitions, threads, combine) cell must reproduce
// the reference round byte-for-byte.

struct GridRound {
  uint64_t seed = 0;
  uint64_t key_space = 0;
  size_t num_inputs = 0;
  bool stray_keys = false;
  bool with_combiner = false;
};

RoundSpec<int, int> MakeRound(const GridRound& spec) {
  const uint64_t seed = spec.seed;
  const uint64_t key_space = spec.key_space;
  const bool stray = spec.stray_keys;
  RoundSpec<int, int> round;
  round.name = "grouping-grid";
  round.key_space = key_space;
  round.mapper = [seed, key_space, stray](const int& input,
                                          Emitter<int>* out) {
    const unsigned emissions =
        SplitMix64(static_cast<uint64_t>(input) ^ seed) % 5;
    for (unsigned e = 0; e < emissions; ++e) {
      uint64_t key =
          SplitMix64(static_cast<uint64_t>(input) * 2654435761u + e + seed);
      if (key_space > 0) {
        key = (stray && key % 17 == 0) ? key_space + key % 3000
                                       : key % key_space;
      }
      out->Emit(key, input + static_cast<int>(e));
    }
  };
  round.reducer = [](uint64_t key, std::span<const int> values,
                     ReduceContext* context) {
    context->cost->edges_scanned += values.size();
    int sum = 0;
    for (const int v : values) sum += v;
    if ((static_cast<uint64_t>(sum) + key) % 2 == 0) {
      const NodeId node = static_cast<NodeId>(sum & 0xffff);
      context->EmitInstance(std::span<const NodeId>(&node, 1));
    }
  };
  if (spec.with_combiner) {
    round.combiner = [](int& acc, const int& incoming) { acc += incoming; };
  }
  return round;
}

std::string Describe(const ExecutionPolicy& policy) {
  return "threads=" + std::to_string(policy.num_threads) +
         " partitions=" + std::to_string(policy.shuffle_partitions) +
         " combine=" + (policy.combine ? "on" : "off");
}

TEST(GroupingEquivalence, EveryPartitioningMatchesTheReferenceRound) {
  const uint64_t key_spaces[] = {0, 1, 500, 40000};
  std::vector<GridRound> specs;
  Rng rng(0xbeef);
  for (uint64_t trial = 0; trial < 8; ++trial) {
    GridRound spec;
    spec.seed = rng.Next();
    spec.key_space = key_spaces[trial % 4];
    spec.num_inputs = 200 + rng.Below(600);
    spec.stray_keys = trial % 2 == 0;
    spec.with_combiner = trial % 3 != 0;
    specs.push_back(spec);
  }

  for (const GridRound& spec : specs) {
    std::vector<int> inputs(spec.num_inputs);
    Rng value_rng(spec.seed);
    for (int& v : inputs) v = static_cast<int>(value_rng.Below(1 << 20));
    const RoundSpec<int, int> round = MakeRound(spec);

    // One reference per combine setting: combining changes what the
    // reducer sees (one folded value), so max_reducer_input / reduce_cost
    // legitimately differ between on and off — but outputs never do.
    CollectingSink reference_sinks[2];
    MapReduceMetrics references[2];
    for (const bool combine : {false, true}) {
      references[combine] =
          ReferenceRound(round, std::span<const int>(inputs),
                         &reference_sinks[combine], nullptr, combine);
    }
    EXPECT_EQ(reference_sinks[0].assignments(),
              reference_sinks[1].assignments())
        << "combining changed results, key_space=" << spec.key_space;

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const unsigned partitions : {1u, 0u /* auto */}) {
        for (const bool combine : {true, false}) {
          const ExecutionPolicy policy = ExecutionPolicy::WithThreads(threads)
                                             .WithPartitions(partitions)
                                             .WithCombine(combine);
          CollectingSink sink;
          JobDriver driver(policy);
          const MapReduceMetrics metrics =
              driver.RunRound(round, inputs, &sink);
          EXPECT_EQ(metrics, references[combine])
              << Describe(policy) << " key_space=" << spec.key_space;
          EXPECT_EQ(sink.assignments(), reference_sinks[combine].assignments())
              << Describe(policy) << " key_space=" << spec.key_space;
        }
      }
    }
  }
}

TEST(GroupingStats, DenseRoundCountsEveryPartitionAndSortModeNone) {
  std::vector<int> inputs(20000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  RoundSpec<int, int> round;
  round.name = "dense";
  round.key_space = 512;
  round.mapper = [](const int& v, Emitter<int>* out) {
    out->Emit(SplitMix64(static_cast<uint64_t>(v)) % 512, v);
  };
  round.reducer = [](uint64_t, std::span<const int> values,
                     ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };

  // Dense reducer ranks: every non-empty partition takes the counting
  // scatter.
  const ExecutionPolicy policy = ExecutionPolicy::WithThreads(4);
  JobDriver dense_driver(policy);
  const MapReduceMetrics dense = dense_driver.RunRound(round, inputs, nullptr);
  EXPECT_GT(dense.shuffle.counting_partitions, 0u);
  EXPECT_EQ(dense.shuffle.sorted_partitions, 0u);
  EXPECT_EQ(dense, ReferenceRound(round, std::span<const int>(inputs),
                                  nullptr));

  // Stray keys far above the declared space land in the last partition and
  // stretch its range past the density bound: that partition falls back
  // to the stable sort, the others still count, and nothing else changes.
  round.mapper = [](const int& v, Emitter<int>* out) {
    const uint64_t h = SplitMix64(static_cast<uint64_t>(v));
    out->Emit(v % 100 == 0 ? (uint64_t{1} << 40) + h % 7 : h % 512, v);
  };
  JobDriver stray_driver(policy);
  const MapReduceMetrics stray = stray_driver.RunRound(round, inputs, nullptr);
  EXPECT_GT(stray.shuffle.sorted_partitions, 0u);
  EXPECT_GT(stray.shuffle.counting_partitions, 0u);
  EXPECT_EQ(stray, ReferenceRound(round, std::span<const int>(inputs),
                                  nullptr));
}

// ---------------------------------------------------------------------------
// Satellite regression: a mapper that emits nothing must short-circuit the
// round (no grouping, no reduce dispatch) and still return coherent metrics.

TEST(EmptyRound, MapperEmittingNothingShortCircuits) {
  std::vector<int> inputs(500);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  RoundSpec<int, int> round;
  round.name = "silent";
  round.key_space = 1000;
  round.mapper = [](const int&, Emitter<int>*) {};  // Never emits.
  round.reducer = [](uint64_t, std::span<const int>, ReduceContext*) {
    FAIL() << "reducer must not run in an empty round";
  };

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned partitions : {1u, 0u /* auto */}) {
      const ExecutionPolicy policy =
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions);
      CollectingSink sink;
      CountingSink counting;
      JobDriver driver(policy);
      const MapReduceMetrics metrics = driver.RunRound(round, inputs, &sink);
      JobDriver counting_driver(policy);
      const MapReduceMetrics counted =
          counting_driver.RunRound(round, inputs, &counting);
      EXPECT_EQ(metrics, counted);
      EXPECT_EQ(metrics.input_records, inputs.size());
      EXPECT_EQ(metrics.key_value_pairs, 0u);
      EXPECT_EQ(metrics.distinct_keys, 0u);
      EXPECT_EQ(metrics.outputs, 0u);
      EXPECT_TRUE(sink.assignments().empty());
      EXPECT_EQ(counting.count(), 0u);
      // No reduce dispatch happened: the round's pool accounting shows at
      // most the map phase.
      EXPECT_EQ(metrics.shuffle.counting_partitions +
                    metrics.shuffle.sorted_partitions,
                0u);
    }
  }
}

TEST(EmptyRound, EmptyInputSpanShortCircuits) {
  RoundSpec<int, int> round;
  round.name = "no-inputs";
  round.key_space = 10;
  round.mapper = [](const int&, Emitter<int>*) {
    FAIL() << "mapper must not run without inputs";
  };
  round.reducer = [](uint64_t, std::span<const int>, ReduceContext*) {
    FAIL() << "reducer must not run without inputs";
  };
  const std::vector<int> inputs;
  for (const unsigned partitions : {1u, 0u /* auto */}) {
    JobDriver driver(ExecutionPolicy::WithThreads(4).WithPartitions(partitions));
    const MapReduceMetrics metrics = driver.RunRound(round, inputs, nullptr);
    EXPECT_EQ(metrics.input_records, 0u);
    EXPECT_EQ(metrics.key_value_pairs, 0u);
    EXPECT_EQ(metrics.outputs, 0u);
  }
}

}  // namespace
}  // namespace smr
