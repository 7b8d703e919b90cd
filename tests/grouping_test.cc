// The sort-free grouping layer (mapreduce/group_by_key.h): unit tests of
// the counting scatter's stability, a differential grid of the binned
// scatter that groups sparse partitions, a property-fuzz grid asserting
// outputs, order, and semantic metrics byte-identical to the test-side
// ReferenceRound across 1/2/4/8 threads x one global partition or
// automatic partitioning x combine on/off, the grouping ShuffleStats, and
// the empty-round short-circuit regression.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
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
  // (Named for a forced-counting knob that no longer exists.) Spread 100
  // with 3 pairs is beyond the 4x density bound, so the partition takes
  // the binned scatter (at most 4 x 3 bins, here 16 keys wide) and reports
  // not counted — with the stable-sort order.
  const std::vector<std::vector<Pair>> buckets = {{{107, 1}, {7, 2}},
                                                  {{50, 3}}};
  bool counted = true;
  const std::vector<Pair> grouped = Group(buckets, &counted);
  EXPECT_FALSE(counted);
  EXPECT_EQ(grouped, StableSorted(buckets));
}

TEST(GroupByKey, ForcedCountingStillRefusesAstronomicalRanges) {
  // (Named for a forced-counting knob that no longer exists.) A stray
  // radix key makes the range ~2^63; the binned scatter widens its bins
  // until at most 4 x 2 remain instead of allocating a histogram over the
  // range.
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
// Binned scatter: a sparse partition is scattered into (key - lo) >> shift
// bins and each bin is sorted by key. Every input must still group exactly
// like the stable sort of the worker-order concatenation.

/// Cuts one emission-order stream into `parts` contiguous worker buckets
/// (some possibly empty); their concatenation is the stream again.
std::vector<std::vector<Pair>> SplitIntoBuckets(
    const std::vector<Pair>& emitted, unsigned parts, Rng* rng) {
  std::vector<size_t> cuts = {0, emitted.size()};
  for (unsigned i = 1; i < parts; ++i) {
    cuts.push_back(rng->Below(emitted.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::vector<Pair>> buckets;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    buckets.emplace_back(emitted.begin() + cuts[i],
                         emitted.begin() + cuts[i + 1]);
  }
  return buckets;
}

/// Pairs (key, emission index) for `keys`, so equal keys are told apart.
std::vector<Pair> Emitted(const std::vector<uint64_t>& keys) {
  std::vector<Pair> emitted;
  for (const uint64_t key : keys) {
    emitted.emplace_back(key, static_cast<int>(emitted.size()));
  }
  return emitted;
}

/// Groups `keys` split over 1-4 worker buckets and checks the result and
/// the reported branch against the stable-sort reference.
void ExpectGroupsLikeStableSort(const std::vector<uint64_t>& keys, Rng* rng,
                                const std::string& label) {
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  const uint64_t spread = *hi - *lo;
  const std::vector<std::vector<Pair>> buckets = SplitIntoBuckets(
      Emitted(keys), 1 + static_cast<unsigned>(rng->Below(4)), rng);
  bool counted = false;
  const std::vector<Pair> grouped = Group(buckets, &counted);
  EXPECT_EQ(counted, spread < engine_internal::kAutoSparsityCap * keys.size())
      << label << " n=" << keys.size();
  EXPECT_EQ(grouped, StableSorted(buckets)) << label << " n=" << keys.size();
}

/// Inserts `key` at a random position of `keys`.
void InsertAnywhere(uint64_t key, std::vector<uint64_t>* keys, Rng* rng) {
  keys->insert(keys->begin() + rng->Below(keys->size() + 1), key);
}

TEST(GroupByKey, BinnedScatterMatchesStableSortOnSparseKeys) {
  Rng rng(0xb1225);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.Below(trial % 4 == 0 ? 8 : 4000);
    std::vector<uint64_t> keys(n);

    for (uint64_t& key : keys) key = rng.Next() % (uint64_t{1} << 40);
    ExpectGroupsLikeStableSort(keys, &rng, "uniform sparse");

    // The two-round join's key u * nodes + w with u < w, drawn from a pool
    // of n / 3 + 1 endpoint pairs so keys repeat.
    const uint64_t nodes = 2 + rng.Below(20000);
    std::vector<uint64_t> pool(n / 3 + 1);
    for (uint64_t& key : pool) {
      const uint64_t u = rng.Below(nodes - 1);
      key = u * nodes + u + 1 + rng.Below(nodes - 1 - u);
    }
    for (uint64_t& key : keys) key = pool[rng.Below(pool.size())];
    ExpectGroupsLikeStableSort(keys, &rng, "two-round join");

    std::vector<uint64_t> few(1 + rng.Below(8));
    for (uint64_t& key : few) key = rng.Next() >> rng.Below(40);
    for (uint64_t& key : keys) key = few[rng.Below(few.size())];
    ExpectGroupsLikeStableSort(keys, &rng, "heavy duplicates");

    for (uint64_t& key : keys) key = rng.Below(1000);
    std::vector<uint64_t> stray = keys;
    InsertAnywhere(uint64_t{1} << 63, &stray, &rng);
    ExpectGroupsLikeStableSort(stray, &rng, "stray key at 2^63");

    for (uint64_t& key : keys) key = rng.Next();
    std::vector<uint64_t> full = keys;
    InsertAnywhere(0, &full, &rng);
    InsertAnywhere(std::numeric_limits<uint64_t>::max(), &full, &rng);
    ExpectGroupsLikeStableSort(full, &rng, "full 64-bit spread");
  }
}

TEST(GroupByKey, BinnedScatterSortsBinsAtTheInsertionSortThreshold) {
  // 1000 pairs over a spread of max_bins x 1024 - 1 make the bins exactly
  // 1024 keys wide (shift 10). Bin 5 gets `fill` pairs with repeating
  // keys, in random or descending emission order; the others are spread
  // thinly over the rest of the range, with both ends pinned.
  const size_t n = 1000;
  const uint64_t max_bins =
      std::min(engine_internal::kAutoSparsityCap * n,
               engine_internal::kMaxSparseBins);
  const uint64_t spread = max_bins * 1024 - 1;
  const uint64_t bin_lo = 5 * 1024;
  const size_t threshold = engine_internal::kInsertionSortMax;
  Rng rng(0x7e5);
  for (const size_t fill : {threshold, threshold + 1}) {
    for (const bool descending : {false, true}) {
      std::vector<uint64_t> in_bin(fill);
      for (uint64_t& key : in_bin) key = bin_lo + 16 * rng.Below(32);
      if (descending) std::sort(in_bin.rbegin(), in_bin.rend());
      std::vector<uint64_t> keys = {0, spread};
      while (keys.size() + fill < n) {
        const uint64_t key = rng.Below(spread + 1);
        if (key < bin_lo || key >= bin_lo + 1024) keys.push_back(key);
      }
      const size_t at = rng.Below(keys.size() + 1);
      keys.insert(keys.begin() + at, in_bin.begin(), in_bin.end());
      ASSERT_EQ(keys.size(), n);
      ExpectGroupsLikeStableSort(
          keys, &rng,
          "bin of " + std::to_string(fill) +
              (descending ? " descending" : " random"));
    }
  }
}

/// Wall-clock seconds `run` takes.
template <typename Run>
double SecondsOf(const Run& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(GroupByKey, OneStrayKeyOverADenseMassSortsBinZeroFast) {
  // Every key but one lands in bin 0, which is far past the insertion-sort
  // threshold: it must take stable_sort, at about the reference's cost. An
  // insertion sort of these 200 000 pairs takes ~300x the reference in
  // Release (11 s against 0.03 s), so the bound below is loose enough for
  // sanitizers and loaded hosts and still catches it.
  Rng rng(0xad5e);
  std::vector<uint64_t> keys(200000);
  for (uint64_t& key : keys) key = rng.Below(1000);
  keys.push_back(uint64_t{1} << 63);
  const std::vector<std::vector<Pair>> buckets = {Emitted(keys)};
  bool counted = true;
  std::vector<Pair> grouped;
  std::vector<Pair> reference;
  const double group_seconds =
      SecondsOf([&] { grouped = Group(buckets, &counted); });
  const double sort_seconds =
      SecondsOf([&] { reference = StableSorted(buckets); });
  EXPECT_FALSE(counted);
  EXPECT_EQ(grouped, reference);
  EXPECT_LT(group_seconds, 20 * sort_seconds + 0.5);
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
