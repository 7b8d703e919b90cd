#ifndef SMR_MAPREDUCE_ENGINE_H_
#define SMR_MAPREDUCE_ENGINE_H_

#include <span>
#include <type_traits>

#include "mapreduce/execution_policy.h"
#include "mapreduce/local_round.h"
#include "mapreduce/process_backend.h"
#include "mapreduce/round.h"

namespace smr {

/// Execution substrate: a faithful simulator of map-reduce rounds
/// (map -> shuffle/group-by-key -> reduce), the model of [11] that the
/// whole paper is expressed in. Keys are 64-bit reducer ids; values are an
/// algorithm-chosen POD. The engine measures exactly the quantities the
/// paper optimizes (Section 1.2): key-value pairs shipped (communication
/// cost), distinct keys (reducers), skew, and the reducers' instrumented
/// computation cost.
///
/// The engine is layered:
///
///   strategies -> JobDriver (mapreduce/job.h)
///                   |  declared rounds
///                   v
///   RunRound (this header) ------ picks local or process per round
///                   |
///                   v
///   RunLocalRound (mapreduce/local_round.h) -- one partitioned pipeline
///       on this process's threads: scatter into the bucket store's P
///       key-range buckets, group (mapreduce/group_by_key.h) or, where
///       runs spilled, merge (mapreduce/spill.h) per partition, reduce,
///       ordered replay
///   ProcessShuffleBackend (mapreduce/process_backend.h) -- the same
///       bucket store, with forked map workers feeding it over
///       codec-framed sockets and forked reduce workers each owning a
///       contiguous group of partitions
///                   |
///                   v
///   codec (mapreduce/codec.h) --- one serialization vocabulary: fixed-size
///                                 ValueCodec records (spill) and
///                                 length-prefixed varint frames (process)
///
/// A round is *declared*, not hand-wired: a RoundSpec (mapreduce/round.h)
/// names the mapper, the reducer, the reducer key space, and (optionally)
/// an associative map-side combiner. Rounds are run through a JobDriver,
/// which chains them under one ExecutionPolicy and aggregates their
/// metrics; the low-level RunRound entry point below is what the driver
/// calls.
///
/// Both runners honor one contract, whatever the transport: the shuffle
/// is fully deterministic — values arrive at each reducer in mapper
/// emission order, reducers run in ascending key order — and metrics and
/// sink emissions are byte-identical to the serial engine for every thread
/// count, worker count, partition count, and budget. Map and
/// reduce callbacks must therefore be re-entrant: they may mutate only
/// their own locals and the ReduceContext/Emitter they are handed, never
/// shared captured state. One narrow exception for reducers: because each
/// distinct key is reduced exactly once per round, a reducer may write to
/// a preallocated per-key slot of a shared structure (e.g. counts[key] =
/// ...) — disjoint slots, one writer each, no race. Nothing finer:
/// accumulating into any shared location reachable from two keys is a data
/// race. (The process backend runs reducers in forked children, where such
/// shared-slot writes stay in the child's address space — see
/// process_backend.h for that backend's stricter contract.)
///
/// Parallel phases dispatch through the policy's persistent ThreadPool
/// (mapreduce/thread_pool.h): threads are spawned on the first parallel
/// phase and parked between phases, so a multi-round job pays thread setup
/// once, not per phase per round. ShuffleStats records the per-round
/// spawn/reuse split.
///
/// Combining. When a RoundSpec declares a combiner (and the policy does
/// not disable it), each map worker pre-aggregates its own emissions in
/// place: the first emission of a key appends a pair, later emissions of
/// the same key fold into that pair via the combiner. After the shuffle
/// each key's per-worker partials sit adjacent in worker order, and the
/// engine folds them once more before invoking the reducer, which
/// therefore receives exactly ONE combined value per key. Because map
/// workers cover contiguous input slices in order, the two folds compose
/// to a left fold over the full serial emission order — so for an
/// *associative* combiner the reducer's input, the semantic metrics, and
/// the sink emissions are byte-identical for every policy, exactly as
/// without a combiner. The logical communication cost (`key_value_pairs`,
/// what the paper's model counts) is unchanged by combining; the
/// physically shipped pair count is reported separately in
/// `ShuffleStats::pairs_shipped` and shrinks with combining — per-worker
/// pre-aggregation is host-scheduling-dependent, which is why it lives
/// with the other host-side shuffle stats outside metrics equality.

/// Runs one declared round. `sink` receives the reducers' final instances
/// (EmitInstance), `records` the intermediate records (EmitRecord) a
/// multi-round pipeline threads into its next round; either may be null.
/// `policy` selects the host-side scheduling — forked worker processes
/// when it asks for BackendMode::kProcess, the local round otherwise;
/// results are identical for every thread count, partition count, budget,
/// and backend. Values must be ValueCodec-encodable (the bucket store
/// asserts it), as any round may spill or cross a process boundary.
/// `expected_pairs` is a host-side reservation hint for the round's total
/// emission count (0 = none; the spec's own `emissions_per_input` hint
/// takes precedence) — a JobDriver passes the previous round's shipped
/// pair count, a decent prior for pipelines that reshuffle similar
/// volumes. Prefer JobDriver::RunRound (mapreduce/job.h), which also
/// aggregates JobMetrics.
template <typename Input, typename Value>
MapReduceMetrics RunRound(
    const RoundSpec<Input, Value>& spec,
    // type_identity keeps the span out of deduction so callers can pass
    // vectors (Input/Value are pinned by the spec).
    std::span<const std::type_identity_t<Input>> inputs, InstanceSink* sink,
    InstanceSink* records = nullptr,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    uint64_t expected_pairs = 0) {
  if (spec.emissions_per_input > 0) {
    expected_pairs = static_cast<uint64_t>(
        spec.emissions_per_input * static_cast<double>(inputs.size()));
  }
  if (policy.backend == BackendMode::kProcess) {
    return ProcessShuffleBackend<Input, Value>().RunRound(
        spec, inputs, sink, records, policy, expected_pairs);
  }
  return RunLocalRound<Input, Value>(spec, inputs, sink, records, policy,
                                     expected_pairs);
}

}  // namespace smr

#endif  // SMR_MAPREDUCE_ENGINE_H_
