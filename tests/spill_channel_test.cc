// Unit tests of one SpillChannel against its PagePool (mapreduce/spill.h),
// below the engine: the pool's charge-step accounting must balance to
// exactly zero on every exit path (channel destruction, spill, and
// BucketStore::Reopen discarding a failed map attempt), and the runs
// and tails a channel groups with GroupByKey must merge back to exactly
// the stable sort of the emission order, on both grouping branches (per-key
// counting and binned), at the kAutoSparsityCap boundary between them, and
// on two-round-join-shaped keys with duplicates. The bucket store must
// drain a partition, spilled or not, to the same stream every time.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/group_by_key.h"
#include "mapreduce/local_round.h"
#include "mapreduce/spill.h"
#include "util/rng.h"

namespace smr {
namespace {

using Value = uint64_t;
using Pair = std::pair<uint64_t, Value>;
using Channel = SpillChannel<Value>;

constexpr uint64_t kRecord = Channel::kRecordBytes;
constexpr uint64_t kPairsPerStep = PagePool::kChargeBytes / kRecord;

/// Emits one pair into partition `p` the way the Emitter does; returns
/// whether the append spilled the channel.
bool Append(Channel* channel, unsigned p, uint64_t key, Value value) {
  (*channel->buckets())[p].emplace_back(key, value);
  return channel->NotifyAppend();
}

TEST(SpillChannelPool, PartialChargeStepIsReleasedOnDestruction) {
  PagePool pool(uint64_t{1} << 30, nullptr);
  {
    Channel channel(&pool, 3);
    // Below one charge step the pool is never touched.
    for (uint64_t i = 0; i + 1 < kPairsPerStep; ++i) {
      ASSERT_FALSE(Append(&channel, i % 3, i, i));
    }
    EXPECT_EQ(pool.resident_bytes(), 0u);
    // 2.5 steps: two charges, then half a step the pool has not seen.
    const uint64_t pairs = 2 * kPairsPerStep + kPairsPerStep / 2 + 1;
    for (uint64_t i = kPairsPerStep - 1; i < pairs; ++i) {
      ASSERT_FALSE(Append(&channel, i % 3, i, i));
    }
    EXPECT_GT(pool.resident_bytes(), 0u);
    EXPECT_LT(pool.resident_bytes(), pairs * kRecord);
    EXPECT_EQ(pool.resident_bytes() % PagePool::kChargeBytes, 0u);
  }
  EXPECT_EQ(pool.resident_bytes(), 0u);
}

TEST(SpillChannelPool, SpillReleasesItsChargeAndLaterAppendsBalance) {
  PagePool pool(PagePool::kPageBytes, nullptr);
  {
    Channel channel(&pool, 2);
    uint64_t i = 0;
    while (!Append(&channel, i % 2, i, i)) ++i;
    EXPECT_GT(pool.pages_spilled(), 0u);
    EXPECT_EQ(pool.resident_bytes(), 0u);
    EXPECT_EQ(channel.PairsInPartition(0) + channel.PairsInPartition(1),
              i + 1);
    // Another step and a half: one charge, no second spill.
    const uint64_t spilled = pool.bytes_spilled();
    for (uint64_t j = 0; j < kPairsPerStep + kPairsPerStep / 2; ++j) {
      ASSERT_FALSE(Append(&channel, j % 2, j, j));
    }
    EXPECT_EQ(pool.bytes_spilled(), spilled);
    EXPECT_EQ(pool.resident_bytes(), PagePool::kChargeBytes);
  }
  EXPECT_EQ(pool.resident_bytes(), 0u);
}

TEST(SpillChannelPool, ReopenReleasesTheDiscardedChannelsCharge) {
  const ExecutionPolicy policy =
      ExecutionPolicy::WithThreads(2).WithBudget(uint64_t{1} << 20);
  engine_internal::BucketStore<Value> store(policy, 2, 4);
  const uint64_t pairs = 3 * kPairsPerStep + 7;
  for (uint64_t i = 0; i < pairs; ++i) {
    ASSERT_FALSE(Append(store.channel(0), i % 4, i, i));
  }
  ASSERT_GT(store.pool.resident_bytes(), 0u);
  EXPECT_EQ(store.Reopen(0), pairs);
  EXPECT_EQ(store.pool.resident_bytes(), 0u);
  // A pool that balanced keeps its budget: refilling the fresh channel to
  // half the budget must not spill (a wrapped counter would spill at
  // every charge step).
  for (uint64_t i = 0; i < (uint64_t{1} << 19) / kRecord; ++i) {
    ASSERT_FALSE(Append(store.channel(0), i % 4, i, i));
  }
  EXPECT_EQ(store.pool.pages_spilled(), 0u);
  store.channels.clear();
  EXPECT_EQ(store.pool.resident_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Grouping from the spill side.

/// How the keys of one grouped segment (a spilled run or the tail) spread.
enum class Spread { kDense, kSparse, kCountingEdge, kSortEdge, kClustered };

/// `n` keys whose max - min is exactly the spread `kind` names:
/// GroupByKey counts per key when spread < kAutoSparsityCap x n, so
/// kCountingEdge (4n - 1) is the widest counted segment and kSortEdge (4n)
/// the narrowest binned one. Sparse keys repeat n / 8 values spaced 2^30
/// apart, so the binned branch sees duplicates whose emission order must
/// survive. Clustered keys are the two-round join's u * nodes + w (u < w)
/// over 64 rows u and a 256-node window of w: n / 8 endpoint pairs, each
/// repeated about 8 times, so a bin holds several distinct keys and their
/// duplicates.
std::vector<uint64_t> SegmentKeys(Spread kind, uint64_t n, Rng* rng) {
  if (kind == Spread::kClustered) {
    const uint64_t nodes = 20000;
    const uint64_t first_u = rng->Below(nodes / 2);
    const uint64_t first_w = first_u + 65 + rng->Below(nodes / 4);
    std::vector<uint64_t> pool(n / 8);
    for (uint64_t& key : pool) {
      key = (first_u + rng->Below(64)) * nodes + first_w + rng->Below(256);
    }
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) key = pool[rng->Below(pool.size())];
    return keys;
  }
  const uint64_t base = 1000 + rng->Below(1000);
  const uint64_t cap = engine_internal::kAutoSparsityCap;
  uint64_t stride = 1;
  uint64_t spread = 0;
  switch (kind) {
    case Spread::kDense: spread = n / 2; break;
    case Spread::kSparse:
      stride = uint64_t{1} << 30;
      spread = (n / 8 - 1) * stride;
      break;
    case Spread::kCountingEdge: spread = cap * n - 1; break;
    case Spread::kSortEdge: spread = cap * n; break;
    case Spread::kClustered: break;
  }
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) {
    key = base + rng->Below(spread / stride + 1) * stride;
  }
  keys[n / 3] = base;  // Pin both ends of the range mid-segment.
  keys[2 * n / 3] = base + spread;
  return keys;
}

/// Which GroupByKey branch a segment of `keys` takes (true = per-key
/// counting, false = binned).
bool CountsSegment(const std::vector<uint64_t>& keys) {
  std::vector<Pair> bucket;
  for (const uint64_t key : keys) bucket.emplace_back(key, 0);
  std::vector<Pair>* buckets[] = {&bucket};
  std::vector<Pair> out;
  std::vector<uint32_t> counts;
  return engine_internal::GroupByKey<Value>(buckets, bucket.size(), &out,
                                            &counts);
}

/// Pairs a fresh single-partition channel takes before its first spill
/// under a one-page budget (a function of bytes only, not of keys).
uint64_t PairsUntilFirstSpill() {
  PagePool pool(PagePool::kPageBytes, nullptr);
  Channel channel(&pool, 1);
  uint64_t n = 1;
  while (!Append(&channel, 0, 0, 0)) ++n;
  return n;
}

TEST(SpillChannelGrouping, MergedRunsEqualStableSortOfEmissionOrder) {
  const uint64_t run_pairs = PairsUntilFirstSpill();
  const uint64_t tail_pairs = run_pairs / 2 + 3;
  ASSERT_GT(run_pairs, 16u);
  const Spread kinds[] = {Spread::kDense, Spread::kSparse,
                          Spread::kCountingEdge, Spread::kSortEdge,
                          Spread::kClustered};
  Rng rng(0x5e11);
  for (const Spread run_kind : kinds) {
    for (const Spread tail_kind : kinds) {
      const std::vector<uint64_t> run_keys =
          SegmentKeys(run_kind, run_pairs, &rng);
      const std::vector<uint64_t> tail_keys =
          SegmentKeys(tail_kind, tail_pairs, &rng);
      // The segments really take the GroupByKey branch they are named for.
      const auto counted = [](Spread kind) {
        return kind == Spread::kDense || kind == Spread::kCountingEdge;
      };
      EXPECT_EQ(CountsSegment(run_keys), counted(run_kind));
      EXPECT_EQ(CountsSegment(tail_keys), counted(tail_kind));

      PagePool pool(PagePool::kPageBytes, nullptr);
      Channel channel(&pool, 1);
      std::vector<Pair> emitted;
      for (uint64_t i = 0; i < run_pairs; ++i) {
        emitted.emplace_back(run_keys[i], emitted.size());
        ASSERT_EQ(Append(&channel, 0, run_keys[i], emitted.back().second),
                  i + 1 == run_pairs)
            << "the run must spill at exactly its last pair";
      }
      for (const uint64_t key : tail_keys) {
        emitted.emplace_back(key, emitted.size());
        ASSERT_FALSE(Append(&channel, 0, key, emitted.back().second));
      }
      // The tail is grouped when its sources are taken, at drain.
      std::vector<SpillSource<Value>> sources;
      std::vector<uint32_t> counts;
      ASSERT_TRUE(channel.Spilled(0));
      channel.AppendSources(0, &sources, &counts);
      ASSERT_EQ(sources.size(), 2u);  // One spilled run + the tail.
      SpillMerger<Value> merger(std::move(sources));
      std::vector<Pair> merged;
      Pair pair;
      while (merger.Next(&pair.first, &pair.second)) merged.push_back(pair);

      std::stable_sort(
          emitted.begin(), emitted.end(),
          [](const Pair& a, const Pair& b) { return a.first < b.first; });
      EXPECT_EQ(merged, emitted)
          << "run " << static_cast<int>(run_kind) << " tail "
          << static_cast<int>(tail_kind);
    }
  }
}

/// Drains partition `p` of `store` into a vector; `grouping` receives
/// Drain's grouping code.
std::vector<Pair> DrainAll(engine_internal::BucketStore<Value>* store,
                           unsigned p, uint8_t* grouping) {
  std::vector<Pair> stream;
  typename engine_internal::BucketStore<Value>::Scratch scratch;
  *grouping = store->Drain(
      p, store->PairsIn(0, p) + store->PairsIn(1, p), &scratch,
      [&](const auto& next) {
        for (const Pair* pair = next(); pair != nullptr; pair = next()) {
          stream.push_back(*pair);
        }
      });
  return stream;
}

TEST(BucketStoreDrain, DrainingTwiceYieldsTheSameStreamSpilledOrNot) {
  // Worker 0 spills partition 0 under a one-page budget and then leaves a
  // tail in it; worker 1 adds a tail to partition 0 and is the only one to
  // emit into partition 1, below the spill floor, so partition 1 never
  // spills. Each partition must drain, twice, to the stable sort of its
  // worker-order emissions.
  const ExecutionPolicy policy =
      ExecutionPolicy::Serial().WithBudget(PagePool::kPageBytes);
  engine_internal::BucketStore<Value> store(policy, 2, 2);
  std::vector<Pair> emitted[2][2];  // [worker][partition]
  Rng rng(0xd4a1);
  const auto emit = [&](unsigned t, unsigned p, uint64_t key) {
    emitted[t][p].emplace_back(key, rng.Next());
    return Append(store.channel(t), p, key, emitted[t][p].back().second);
  };
  while (!emit(0, 0, rng.Below(300))) {
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_FALSE(emit(0, 0, rng.Below(300)));
    ASSERT_FALSE(emit(1, 0, rng.Below(300)));
    ASSERT_FALSE(emit(1, 1, 1000 + rng.Below(300)));
  }
  ASSERT_TRUE(store.channel(0)->Spilled(0));
  ASSERT_FALSE(store.channel(1)->Spilled(0));
  ASSERT_FALSE(store.channel(0)->Spilled(1));
  ASSERT_FALSE(store.channel(1)->Spilled(1));

  for (unsigned p = 0; p < 2; ++p) {
    std::vector<Pair> expected = emitted[0][p];
    expected.insert(expected.end(), emitted[1][p].begin(),
                    emitted[1][p].end());
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const Pair& a, const Pair& b) { return a.first < b.first; });
    uint8_t first_grouping = 9;
    uint8_t second_grouping = 9;
    const std::vector<Pair> first = DrainAll(&store, p, &first_grouping);
    const std::vector<Pair> second = DrainAll(&store, p, &second_grouping);
    EXPECT_EQ(first, expected) << "partition " << p;
    EXPECT_EQ(second, first) << "partition " << p;
    // Partition 0 is merged from its run; partition 1's 500 keys over 300
    // take the per-key counting scatter.
    EXPECT_EQ(first_grouping, p == 0 ? 0 : 1) << "partition " << p;
    EXPECT_EQ(second_grouping, first_grouping) << "partition " << p;
  }
}

}  // namespace
}  // namespace smr
