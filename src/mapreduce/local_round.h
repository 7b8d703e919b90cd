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

/// Resident bucket store: worker t's emissions for partition p sit in
/// scatter[t][p], in the worker's emission order. A partition is grouped
/// by GroupByKey (per-key counting scatter on dense key ranges, a binned
/// scatter with in-bin sorts otherwise) and reduced from the grouped
/// vector.
template <typename Value>
struct ResidentBuckets {
  using Pair = std::pair<uint64_t, Value>;

  /// Per-reduce-worker scratch, kept allocated across partitions.
  struct Scratch {
    std::vector<Pair> grouped;
    std::vector<std::vector<Pair>*> buckets;
    std::vector<uint32_t> counts;
  };

  ResidentBuckets(unsigned workers, unsigned partitions, size_t per_bucket)
      : scatter(workers, std::vector<std::vector<Pair>>(partitions)),
        bucket_reserve(per_bucket) {}

  /// Called on map worker t's own thread, so its reservations come from
  /// that thread's allocator arena.
  std::vector<std::vector<Pair>>* OpenMap(size_t t) {
    if (bucket_reserve > 0) {
      for (auto& bucket : scatter[t]) bucket.reserve(bucket_reserve);
    }
    return &scatter[t];
  }
  SpillChannel<Value>* channel(size_t) { return nullptr; }
  void FinishMap(size_t) {}
  uint64_t PairsIn(size_t t, unsigned p) const { return scatter[t][p].size(); }
  void CountSpills(ShuffleStats*) const {}

  /// Hands `reduce` partition p's pairs in grouped order; returns how the
  /// partition was grouped (1 = per-key counting scatter, 2 = binned
  /// scatter or, for the cases GroupByKey cannot scatter, stable_sort).
  template <typename Reduce>
  uint8_t Drain(unsigned p, size_t pair_count, Scratch* scratch,
                const Reduce& reduce) {
    scratch->buckets.clear();
    for (auto& worker : scatter) scratch->buckets.push_back(&worker[p]);
    const bool counted = GroupByKey<Value>(scratch->buckets, pair_count,
                                           &scratch->grouped,
                                           &scratch->counts);
    const std::vector<Pair>& grouped = scratch->grouped;
    size_t i = 0;
    reduce([&]() -> const Pair* {
      return i < grouped.size() ? &grouped[i++] : nullptr;
    });
    return counted ? 1 : 2;
  }

  std::vector<std::vector<std::vector<Pair>>> scatter;
  size_t bucket_reserve;
};

/// Budgeted bucket store: each map worker's buckets belong to a
/// SpillChannel charged against one PagePool in charge steps; at a charge
/// that leaves the pool over budget, a channel holding at least the spill
/// floor spills its buckets, grouped by GroupByKey, as runs to the
/// worker's temp file. A partition is streamed back as a stable merge of
/// its runs plus resident tails in worker order — exactly the stable sort
/// of the in-memory concatenation, so nothing downstream can tell the
/// stores apart (the contract tests/spill_shuffle_fuzz_test.cc pins).
/// Unbudgeted (the process backend's store), OpenMap reserves
/// `per_bucket` pairs per bucket; under a budget it never pre-allocates.
template <typename Value>
struct SpilledBuckets {
  using Pair = std::pair<uint64_t, Value>;
  struct Scratch {};

  SpilledBuckets(const ExecutionPolicy& policy, unsigned workers,
                 unsigned partitions, size_t per_bucket = 0)
      : pool(policy.shuffle_budget_bytes, policy.spill_backend),
        bucket_reserve(pool.bounded() ? 0 : per_bucket) {
    channels.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      channels.push_back(
          std::make_unique<SpillChannel<Value>>(&pool, partitions));
    }
  }

  /// Called on map worker t's own thread, like ResidentBuckets::OpenMap.
  std::vector<std::vector<Pair>>* OpenMap(size_t t) {
    std::vector<std::vector<Pair>>* buckets = channels[t]->buckets();
    if (bucket_reserve > 0) {
      for (auto& bucket : *buckets) bucket.reserve(bucket_reserve);
    }
    return buckets;
  }
  SpillChannel<Value>* channel(size_t t) { return channels[t].get(); }
  void FinishMap(size_t t) { channels[t]->Finish(); }
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

  /// Streams partition p's merged pairs into `reduce`; a merged partition
  /// is never grouped, so it reports neither grouping (0).
  template <typename Reduce>
  uint8_t Drain(unsigned p, size_t, Scratch*, const Reduce& reduce) {
    std::vector<SpillSource<Value>> sources;
    for (auto& channel_ptr : channels) channel_ptr->AppendSources(p, &sources);
    SpillMerger<Value> merger(std::move(sources));
    Pair current;
    reduce([&]() -> const Pair* {
      return merger.Next(&current.first, &current.second) ? &current
                                                           : nullptr;
    });
    return 0;
  }

  // The pool outlives the channels (their destructors release their
  // resident accounting into it), and the channels outlive the reduce
  // phase (they own the spill files and resident tails it streams from).
  PagePool pool;
  size_t bucket_reserve;
  std::vector<std::unique_ptr<SpillChannel<Value>>> channels;
};

/// Pairs each partition of `store` holds, summed over its map workers.
template <typename Store>
std::vector<uint64_t> PartitionPairs(const Store& store, size_t workers,
                                     unsigned partitions) {
  std::vector<uint64_t> pairs(partitions, 0);
  for (unsigned p = 0; p < partitions; ++p) {
    for (size_t t = 0; t < workers; ++t) pairs[p] += store.PairsIn(t, p);
  }
  return pairs;
}

/// The local round over either bucket store: map workers scatter their
/// contiguous input slices into the store's P key-range buckets; reduce
/// workers drain partitions from a dynamic queue, each into
/// partition-private metrics and sinks; partitions are then replayed in
/// order. Partitions cover ascending disjoint key ranges and each is
/// reduced in grouped order (ascending key, emission order within a key),
/// so the replay reproduces the serial round exactly. `expected_keys`
/// pre-sizes each map worker's combiner slot index (0 = none).
template <typename Input, typename Value, typename Store>
MapReduceMetrics RunStoreRound(const RoundSpec<Input, Value>& spec,
                               std::span<const Input> inputs,
                               InstanceSink* sink, InstanceSink* records,
                               const ExecutionPolicy& policy,
                               size_t expected_keys, Store* store) {
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

  // Map phase: worker t scatters its slice's emissions into its own
  // buckets, one per destination partition, in emission order.
  const std::vector<size_t> bounds =
      SliceBoundaries(inputs.size(), map_threads);
  std::vector<uint64_t> worker_logical(map_threads, 0);
  RunWorkers(policy, map_threads, [&](size_t t) {
    Emitter<Value> emitter(store->OpenMap(t), &partitioner, combiner,
                           expected_keys, store->channel(t));
    for (size_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      spec.mapper(inputs[i], &emitter);
    }
    store->FinishMap(t);
    worker_logical[t] = emitter.emitted();
  }, &metrics.shuffle);

  const std::vector<uint64_t> partition_pairs =
      PartitionPairs(*store, map_threads, partitions);
  const uint64_t total_pairs = std::accumulate(
      partition_pairs.begin(), partition_pairs.end(), uint64_t{0});
  CountMapPhase<Value>(std::accumulate(worker_logical.begin(),
                                       worker_logical.end(), uint64_t{0}),
                       total_pairs, &metrics);
  store->CountSpills(&metrics.shuffle);

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
  RunWorkers(policy, reduce_threads, [&](size_t) {
    typename Store::Scratch scratch;
    while (true) {
      const unsigned p = next_partition.fetch_add(1);
      if (p >= partitions) break;
      if (partition_pairs[p] == 0) continue;
      InstanceSink* out = counts_only ? nullptr
                          : buffered  ? &partition_sinks[p]
                                      : sink;
      InstanceSink* out_records =
          buffered_records ? &partition_records[p] : records;
      partition_grouping[p] = store->Drain(
          p, partition_pairs[p], &scratch, [&](const auto& next) {
            ReduceGroups<Value>(next, spec.reducer, combiner, out,
                                out_records, &partition_metrics[p]);
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

}  // namespace engine_internal

/// Runs one round on this process's threads: the partitioned pipeline of
/// engine_internal::RunStoreRound over EffectivePartitions() key ranges,
/// with a spilling bucket store when the policy sets a shuffle budget and
/// the value is spillable, resident vectors otherwise. Single-threaded
/// rounds run this same pipeline on one worker; P = 1 groups the whole
/// round as one partition. Shared by engine.h's RunRound and by the process
/// backend's retries-exhausted thread fallback (OnExhausted::
/// kFallbackThread), so the fallback runs exactly the round the policy
/// would have run without BackendMode::kProcess.
template <typename Input, typename Value>
MapReduceMetrics RunLocalRound(const RoundSpec<Input, Value>& spec,
                               std::span<const Input> inputs,
                               InstanceSink* sink, InstanceSink* records,
                               const ExecutionPolicy& policy,
                               uint64_t expected_pairs) {
  const unsigned map_threads = policy.EffectiveThreads(inputs.size());
  const unsigned partitions = policy.EffectivePartitions();
  if constexpr (SpillTraits<Value>::kSpillable) {
    if (policy.shuffle_budget_bytes > 0) {
      // No reservations: a budgeted round must not pre-allocate past it.
      engine_internal::SpilledBuckets<Value> store(policy, map_threads,
                                                   partitions);
      return engine_internal::RunStoreRound(spec, inputs, sink, records,
                                            policy, 0, &store);
    }
  }
  engine_internal::ResidentBuckets<Value> store(
      map_threads, partitions,
      engine_internal::BucketReserve(spec, policy, expected_pairs,
                                     map_threads));
  return engine_internal::RunStoreRound(
      spec, inputs, sink, records, policy,
      engine_internal::ExpectedPerWorker(spec, policy, expected_pairs,
                                         map_threads),
      &store);
}

}  // namespace smr

#endif  // SMR_MAPREDUCE_LOCAL_ROUND_H_
