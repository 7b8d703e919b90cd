#ifndef SMR_MAPREDUCE_LOCAL_ROUND_H_
#define SMR_MAPREDUCE_LOCAL_ROUND_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/group_by_key.h"
#include "mapreduce/round.h"
#include "mapreduce/spill.h"

namespace smr {

namespace engine_internal {

/// With a combiner, an emission buffer holds at most one pair per distinct
/// key, so reservations clamp to the declared key space — a counting round
/// with millions of emissions onto a few thousand keys must not reserve
/// for the raw emission count.
inline uint64_t ClampCombined(bool combining, uint64_t key_space, uint64_t n) {
  return (combining && key_space > 0) ? std::min(n, key_space) : n;
}

/// One map worker's share of the round's expected emissions, clamped
/// under a combiner (it also pre-sizes the combiner's slot index).
template <typename Input, typename Value>
uint64_t ExpectedPerWorker(const RoundSpec<Input, Value>& spec,
                           const ExecutionPolicy& policy,
                           uint64_t expected_pairs, unsigned workers) {
  return ClampCombined(policy.combine && spec.combiner, spec.key_space,
                       expected_pairs / workers);
}

/// An unbudgeted bucket store's per-bucket reservation (0 = no hint): a
/// worker's share spread evenly over the partitions, plus half again. The
/// dense reducer ranks the strategies declare make the even split a fair
/// prior, but key ranges are not equally loaded (orderedbucket:12 on
/// ER(20000, 200000) fills its largest of 16 partitions to 1.25x the even
/// share). A bucket that outgrows its reservation copies into twice it,
/// while reserved pages never written never become resident.
template <typename Input, typename Value>
size_t BucketReserve(const RoundSpec<Input, Value>& spec,
                     const ExecutionPolicy& policy, uint64_t expected_pairs,
                     unsigned workers) {
  if (expected_pairs == 0) return 0;
  const uint64_t even =
      ExpectedPerWorker(spec, policy, expected_pairs, workers) /
      policy.EffectivePartitions();
  return even + even / 2 + 1;
}

/// The engine's bucket store, for local rounds and the process backend's
/// coordinator alike: map worker t emits into SpillChannel t, one bucket
/// per destination partition, in emission order. Each channel is charged
/// against one PagePool; under a budget, a channel holding at least the
/// spill floor spills its buckets as grouped runs to its worker's temp file
/// when a charge leaves the pool over budget (mapreduce/spill.h). Without
/// a budget nothing spills, and OpenMap reserves `per_bucket` pairs per
/// bucket; under one it never pre-allocates.
///
/// Drain hands a partition over in grouped order (ascending key, emission
/// order within a key). A partition no channel spilled into is grouped by
/// one GroupByKey over its tails in worker order. A spilled one is a
/// stable merge of its runs plus its tails, each tail grouped on its own:
/// exactly the stable sort of the in-memory concatenation, so nothing
/// downstream can tell the two apart (tests/spill_shuffle_fuzz_test.cc).
template <typename Value>
struct BucketStore {
  static_assert(ValueCodec<Value>::kEncodable,
                "shuffle values must be ValueCodec-encodable: any round "
                "may spill or cross a process boundary");
  using Pair = std::pair<uint64_t, Value>;

  /// Per-drain-thread scratch, kept allocated across partitions.
  struct Scratch {
    std::vector<std::vector<Pair>*> tails;
    std::vector<uint32_t> counts;
    std::vector<Pair> grouped;
  };

  BucketStore(const ExecutionPolicy& policy, unsigned workers,
              unsigned partitions, size_t per_bucket = 0)
      : pool(policy.shuffle_budget_bytes, policy.spill_backend),
        bucket_reserve(pool.bounded() ? 0 : per_bucket) {
    channels.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      channels.push_back(
          std::make_unique<SpillChannel<Value>>(&pool, partitions));
    }
  }

  /// Called on map worker t's own thread, so its reservations come from
  /// that thread's allocator arena.
  std::vector<std::vector<Pair>>* OpenMap(size_t t) {
    std::vector<std::vector<Pair>>* buckets = channels[t]->buckets();
    if (bucket_reserve > 0) {
      for (auto& bucket : *buckets) bucket.reserve(bucket_reserve);
    }
    return buckets;
  }
  SpillChannel<Value>* channel(size_t t) { return channels[t].get(); }
  uint64_t PairsIn(size_t t, unsigned p) const {
    return channels[t]->PairsInPartition(p);
  }

  /// Swaps worker t's channel for an empty one — how the process backend
  /// discards a failed map attempt; returns the pairs the old one held.
  uint64_t Reopen(size_t t) {
    const auto partitions =
        static_cast<unsigned>(channels[t]->buckets()->size());
    uint64_t pairs = 0;
    for (unsigned p = 0; p < partitions; ++p) pairs += PairsIn(t, p);
    channels[t] = std::make_unique<SpillChannel<Value>>(&pool, partitions);
    return pairs;
  }

  void CountSpills(ShuffleStats* stats) const {
    stats->pages_spilled = pool.pages_spilled();
    stats->bytes_spilled = pool.bytes_spilled();
    stats->spill_files = pool.spill_files();
  }

  /// Hands `reduce` partition p's `pair_count` pairs in grouped order;
  /// returns how the partition was grouped (1 = per-key counting scatter,
  /// 2 = binned scatter or stable_sort, 0 = merged from spilled runs).
  /// Draining p again yields the same stream, as a process-backend reduce
  /// retry needs: GroupByKey leaves the tails it groups unchanged, and a
  /// spilled partition's tails are grouped in place, which a second
  /// grouping leaves as they are.
  template <typename Reduce>
  uint8_t Drain(unsigned p, size_t pair_count, Scratch* scratch,
                const Reduce& reduce) {
    bool spilled = false;
    for (const auto& channel : channels) spilled |= channel->Spilled(p);
    if (spilled) {
      std::vector<SpillSource<Value>> sources;
      for (auto& channel : channels) {
        channel->AppendSources(p, &sources, &scratch->counts);
      }
      SpillMerger<Value> merger(std::move(sources));
      Pair current;
      reduce([&]() -> const Pair* {
        return merger.Next(&current.first, &current.second) ? &current
                                                             : nullptr;
      });
      return 0;
    }
    scratch->tails.clear();
    for (auto& channel : channels) {
      scratch->tails.push_back(&(*channel->buckets())[p]);
    }
    const bool counted = GroupByKey<Value>(
        scratch->tails, pair_count, &scratch->grouped, &scratch->counts);
    const std::vector<Pair>& grouped = scratch->grouped;
    size_t i = 0;
    reduce([&]() -> const Pair* {
      return i < grouped.size() ? &grouped[i++] : nullptr;
    });
    return counted ? 1 : 2;
  }

  // The pool outlives the channels (their destructors release their
  // resident accounting into it), and the channels outlive the reduce
  // phase (they own the spill files and tails it streams from).
  PagePool pool;
  size_t bucket_reserve;
  std::vector<std::unique_ptr<SpillChannel<Value>>> channels;
};

/// Pairs each partition of `store` holds, summed over its map workers.
template <typename Value>
std::vector<uint64_t> PartitionPairs(const BucketStore<Value>& store,
                                     size_t workers, unsigned partitions) {
  std::vector<uint64_t> pairs(partitions, 0);
  for (unsigned p = 0; p < partitions; ++p) {
    for (size_t t = 0; t < workers; ++t) pairs[p] += store.PairsIn(t, p);
  }
  return pairs;
}

}  // namespace engine_internal

/// Runs one round on this process's threads: map workers scatter their
/// contiguous input slices into the bucket store's P =
/// EffectivePartitions() key-range buckets; reduce workers drain
/// partitions from a dynamic queue, each into partition-private metrics
/// and sinks; partitions are then replayed in order. Partitions cover
/// ascending disjoint key ranges and each is reduced in grouped order, so
/// the replay reproduces the serial round exactly. Single-threaded rounds
/// run this same pipeline on one worker; P = 1 groups the whole round as
/// one partition. Shared by engine.h's RunRound and by the process
/// backend's retries-exhausted thread fallback (OnExhausted::
/// kFallbackThread), so the fallback runs exactly the round the policy
/// would have run without BackendMode::kProcess.
template <typename Input, typename Value>
MapReduceMetrics RunLocalRound(const RoundSpec<Input, Value>& spec,
                               std::span<const Input> inputs,
                               InstanceSink* sink, InstanceSink* records,
                               const ExecutionPolicy& policy,
                               uint64_t expected_pairs) {
  using CombineFn = typename Emitter<Value>::CombineFn;
  const unsigned map_threads = policy.EffectiveThreads(inputs.size());
  const unsigned partitions = policy.EffectivePartitions();
  MapReduceMetrics metrics;
  metrics.input_records = inputs.size();
  metrics.key_space = spec.key_space;
  metrics.shuffle.partitions = partitions;

  const CombineFn* combiner =
      (policy.combine && spec.combiner) ? &spec.combiner : nullptr;
  const KeyPartitioner partitioner(partitions, spec.key_space);
  engine_internal::BucketStore<Value> store(
      policy, map_threads, partitions,
      engine_internal::BucketReserve(spec, policy, expected_pairs,
                                     map_threads));
  // Like the buckets, the combiner's slot index is presized only without
  // a budget: a budgeted round must not pre-allocate past it.
  const size_t expected_keys =
      store.pool.bounded() ? 0
                           : engine_internal::ExpectedPerWorker(
                                 spec, policy, expected_pairs, map_threads);

  // Map phase: worker t scatters its slice's emissions into its own
  // buckets, one per destination partition, in emission order.
  const std::vector<size_t> bounds =
      engine_internal::SliceBoundaries(inputs.size(), map_threads);
  std::vector<uint64_t> worker_logical(map_threads, 0);
  engine_internal::RunWorkers(policy, map_threads, [&](size_t t) {
    Emitter<Value> emitter(store.OpenMap(t), &partitioner, combiner,
                           expected_keys, store.channel(t));
    for (size_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      spec.mapper(inputs[i], &emitter);
    }
    worker_logical[t] = emitter.emitted();
  }, &metrics.shuffle);

  const std::vector<uint64_t> partition_pairs =
      engine_internal::PartitionPairs(store, map_threads, partitions);
  const uint64_t total_pairs = std::accumulate(
      partition_pairs.begin(), partition_pairs.end(), uint64_t{0});
  engine_internal::CountMapPhase<Value>(
      std::accumulate(worker_logical.begin(), worker_logical.end(),
                      uint64_t{0}),
      total_pairs, &metrics);
  store.CountSpills(&metrics.shuffle);

  // Empty round: nothing to group, no reduce workers worth dispatching.
  if (total_pairs == 0) return metrics;

  // Reduce phase. A single reduce worker drains partitions in order, so it
  // emits straight into the round's sinks; several buffer per partition
  // for the ordered replay below. Counting sinks never need emissions
  // buffered — the merged output total suffices.
  const unsigned reduce_threads =
      std::min(policy.EffectiveThreads(total_pairs), partitions);
  const bool direct = reduce_threads <= 1;
  const bool counts_only = sink != nullptr && sink->CountsOnly();
  const bool buffered = !direct && sink != nullptr && !counts_only;
  const bool buffered_records = !direct && records != nullptr;
  std::vector<MapReduceMetrics> partition_metrics(partitions);
  std::vector<BufferingSink> partition_sinks(buffered ? partitions : 0);
  std::vector<BufferingSink> partition_records(
      buffered_records ? partitions : 0);
  // One writer per slot (each partition is drained exactly once).
  std::vector<uint8_t> partition_grouping(partitions, 0);
  std::atomic<unsigned> next_partition{0};
  engine_internal::RunWorkers(policy, reduce_threads, [&](size_t) {
    typename engine_internal::BucketStore<Value>::Scratch scratch;
    while (true) {
      const unsigned p = next_partition.fetch_add(1);
      if (p >= partitions) break;
      if (partition_pairs[p] == 0) continue;
      InstanceSink* out = counts_only ? nullptr
                          : buffered  ? &partition_sinks[p]
                                      : sink;
      InstanceSink* out_records =
          buffered_records ? &partition_records[p] : records;
      partition_grouping[p] = store.Drain(
          p, partition_pairs[p], &scratch, [&](const auto& next) {
            engine_internal::ReduceGroups<Value>(next, spec.reducer,
                                                 combiner, out, out_records,
                                                 &partition_metrics[p]);
          });
    }
  }, &metrics.shuffle);

  for (unsigned p = 0; p < partitions; ++p) {
    metrics.MergePartitionShard(partition_metrics[p], partition_pairs[p]);
    metrics.shuffle.counting_partitions += partition_grouping[p] == 1;
    metrics.shuffle.sorted_partitions += partition_grouping[p] == 2;
    if (buffered) partition_sinks[p].FlushTo(sink);
    if (buffered_records) partition_records[p].FlushTo(records);
  }
  if (counts_only) sink->EmitCount(metrics.outputs);
  return metrics;
}

}  // namespace smr

#endif  // SMR_MAPREDUCE_LOCAL_ROUND_H_
