#ifndef SMR_MAPREDUCE_PROCESS_BACKEND_H_
#define SMR_MAPREDUCE_PROCESS_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/local_round.h"
#include "mapreduce/process_link.h"
#include "mapreduce/round.h"
#include "mapreduce/worker_error.h"

namespace smr {

/// BackendMode::kProcess: map and reduce workers are forked processes, and
/// every shuffled pair crosses the kernel as a codec-framed record over a
/// socketpair — the measured cost the paper only models. The coordinator
/// shuffles through the local round's bucket store (BucketStore, under
/// the shuffle budget): map worker t's link drains into channel t
/// through the round's KeyPartitioner, and reduce worker r owns the
/// partition group [b[r], b[r+1]) of b = SliceBoundaries(partitions, R),
/// each partition sent in grouped order as the store drains it. Groups
/// are ascending disjoint key ranges, so replaying output in worker order
/// reproduces the local round exactly (tests/process_backend_test.cc).
/// Both crews run WorkerCrew::Run: every link is drained or fed on its own
/// coordinator thread, all at once, and forks happen only between those
/// passes.
///
/// Both worker roles stream, so neither holds its whole side of the
/// shuffle: a map worker ships its pairs in kBatchBytes batches while it
/// maps (a round with a combiner folds its whole slice first), and a
/// reduce worker reduces each key as soon as its last pair arrives. A
/// reduce worker holds only its output, until its input's kEnd, so no
/// link ever sends both ways at once.
///
/// Faults (tests/fault_tolerance_test.cc), under policy.retry: a failed
/// attempt is killed and its parent-side effects (channel, buffered
/// output, wire bytes) discarded; the slot re-forks on the same slice or
/// group, so recovery is byte-identical. An armed fault fires on the frame
/// the plan names, as the child writes it (FrameWriter). An exhausted
/// slot throws WorkerError, or under kFallbackThread the round reruns
/// locally — safe, as output is replayed only after every worker
/// succeeded. Wire bytes count successful attempts only.
///
/// Reducer contract: only what reducers emit through the ReduceContext
/// reaches the parent (a shared-slot write stays in the child), and side
/// effects outside that stream may repeat under retries.
template <typename Input, typename Value>
class ProcessShuffleBackend {
  using Pair = std::pair<uint64_t, Value>;
  using CombineFn = typename Emitter<Value>::CombineFn;
  using Fault = process_internal::Fault;
  using WorkerCrew = process_internal::WorkerCrew;
  static constexpr size_t kPairFrameBytes = RecordCodec<Value>::kMaxFrameSize;

 public:
  /// Runs one declared round; see engine.h's RunRound for the contract.
  MapReduceMetrics RunRound(const RoundSpec<Input, Value>& spec,
                            std::span<const Input> inputs, InstanceSink* sink,
                            InstanceSink* records,
                            const ExecutionPolicy& policy,
                            uint64_t expected_pairs) const {
    MapReduceMetrics metrics;
    try {
      RunProcessRound(spec, inputs, sink, records, policy, expected_pairs,
                      &metrics);
    } catch (const WorkerError&) {
      if (policy.on_exhausted != OnExhausted::kFallbackThread) throw;
      // Safe: nothing was emitted yet, and the local round is identical.
      const ShuffleStats faults = metrics.shuffle;
      metrics = RunLocalRound<Input, Value>(spec, inputs, sink, records,
                                            policy, expected_pairs);
      metrics.shuffle.worker_retries = faults.worker_retries;
      metrics.shuffle.frames_discarded = faults.frames_discarded;
      metrics.shuffle.deadline_kills = faults.deadline_kills;
      metrics.shuffle.thread_fallbacks = 1;
    }
    return metrics;
  }

 private:
  /// Fills *out, whose fault counts survive an escaping WorkerError.
  void RunProcessRound(const RoundSpec<Input, Value>& spec,
                       std::span<const Input> inputs, InstanceSink* sink,
                       InstanceSink* records, const ExecutionPolicy& policy,
                       uint64_t expected_pairs, MapReduceMetrics* out) const {
    MapReduceMetrics& metrics = *out;
    metrics.input_records = inputs.size();
    metrics.key_space = spec.key_space;
    if (inputs.empty()) return;
    FaultInjector* injector = policy.fault_injector != nullptr
                                  ? policy.fault_injector
                                  : EnvFaultInjector();
    const CombineFn* combiner =
        (policy.combine && spec.combiner) ? &spec.combiner : nullptr;
    const unsigned partitions = policy.EffectivePartitions();
    metrics.shuffle.partitions = partitions;

    // Map: one forked worker per contiguous input slice (inherited by
    // fork — only emitted pairs cross the wire), drained into its channel.
    const unsigned map_workers = policy.EffectiveProcessWorkers(inputs.size());
    const std::vector<size_t> slices =
        engine_internal::SliceBoundaries(inputs.size(), map_workers);
    const KeyPartitioner partitioner(partitions, spec.key_space);
    SpillBackend* spill = policy.spill_backend;
    if (injector != nullptr) spill = injector->WrapSpillBackend(spill);
    engine_internal::BucketStore<Value> store(
        policy.WithSpillBackend(spill), map_workers, partitions,
        engine_internal::BucketReserve(spec, policy, expected_pairs,
                                       map_workers));
    std::vector<std::optional<ArmedFault>> armed(map_workers);
    std::vector<uint64_t> logical(map_workers, 0);
    std::vector<uint64_t>& link_bytes = metrics.shuffle.link_bytes_on_wire;
    link_bytes.assign(map_workers, 0);
    WorkerCrew map_crew(WorkerRole::kMap, map_workers,
                        policy.DeadlineTimeoutMs(), kPairFrameBytes);
    const auto map_start = [&](size_t t) {
      armed[t] = map_crew.Spawn(t, injector, [&, t](int fd, const auto& f) {
        MapChild(spec, inputs.subspan(slices[t], slices[t + 1] - slices[t]),
                 combiner, f, fd);
      });
    };
    const auto map_collect = [&](size_t t) {
      ScopedSpillFailure spill_guard(
          injector, armed[t] && armed[t]->kind == FaultKind::kFailSpillAppend);
      Emitter<Value> emitter(store.OpenMap(t), &partitioner, nullptr, 0,
                             store.channel(t));
      uint64_t bytes = 0;
      logical[t] = map_crew.Read(t, [&](const FrameView& frame) {
        Pair pair;
        if (!DecodePair(frame, &pair)) {
          throw Fault{WorkerErrorKind::kCorruptFrame,
                      "corrupt pair frame on " + map_crew.Who(t) + "'s link"};
        }
        try {
          emitter.Emit(pair.first, pair.second);
        } catch (const std::runtime_error& error) {  // the spill store's I/O
          throw Fault{WorkerErrorKind::kSpillFailure, error.what()};
        }
      }, &bytes);
      link_bytes[t] = bytes;
    };
    map_crew.Run(policy, &metrics.shuffle,
                 {map_start, map_collect,
                  [&](size_t t) { return store.Reopen(t); }});

    const std::vector<uint64_t> partition_pairs =
        engine_internal::PartitionPairs(store, map_workers, partitions);
    const uint64_t total_pairs = std::accumulate(
        partition_pairs.begin(), partition_pairs.end(), uint64_t{0});
    engine_internal::CountMapPhase<Value>(
        std::accumulate(logical.begin(), logical.end(), uint64_t{0}),
        total_pairs, &metrics);
    store.CountSpills(&metrics.shuffle);
    metrics.shuffle.map_bytes_on_wire =
        std::accumulate(link_bytes.begin(), link_bytes.end(), uint64_t{0});
    metrics.shuffle.process_workers = map_workers;
    if (total_pairs == 0) return;

    // Reduce: worker r is sent its partition group and reduces it as it
    // arrives, but holds its output until its input's kEnd — so each
    // link's send completes before its collect, with no send/recv cycle.
    const unsigned reduce_workers = policy.EffectiveProcessWorkers(total_pairs);
    const std::vector<size_t> groups =
        engine_internal::SliceBoundaries(partitions, reduce_workers);
    metrics.shuffle.process_workers += reduce_workers;
    metrics.shuffle.max_partition_pairs =
        *std::max_element(partition_pairs.begin(), partition_pairs.end());
    const bool counts_only = sink != nullptr && sink->CountsOnly();
    const unsigned char flags = (sink != nullptr && !counts_only ? 1u : 0u) |
                                (records != nullptr ? 2u : 0u);
    std::vector<std::vector<unsigned char>> replay(reduce_workers);
    std::vector<uint64_t> frames(reduce_workers, 0);
    std::vector<uint64_t> wire_bytes(reduce_workers, 0);
    WorkerCrew reduce_crew(WorkerRole::kReduce, reduce_workers,
                           policy.DeadlineTimeoutMs(), kPairFrameBytes);
    const auto reduce_start = [&](size_t r) {
      reduce_crew.Spawn(r, injector, [&](int fd, const auto& fault) {
        ReduceChild(spec, combiner, fault, fd);
      });
    };
    const auto reduce_collect = [&](size_t r) {
      std::vector<unsigned char> wire;
      AppendFrame(FrameKind::kHeader, &flags, 1, &wire);
      wire_bytes[r] = 0;
      const auto flush = [&] {
        reduce_crew.Send(r, wire.data(), wire.size());
        wire_bytes[r] += wire.size();
        wire.clear();
      };
      typename engine_internal::BucketStore<Value>::Scratch scratch;
      uint64_t sent = 0;
      for (auto p = static_cast<unsigned>(groups[r]); p < groups[r + 1]; ++p) {
        store.Drain(p, partition_pairs[p], &scratch, [&](const auto& next) {
          for (const Pair* pair = next(); pair != nullptr; pair = next()) {
            RecordCodec<Value>::EncodePair(pair->first, pair->second, &wire);
            ++sent;
            if (wire.size() >= process_internal::kBatchBytes) flush();
          }
        });
      }
      unsigned char body[kMaxVarintBytes];
      AppendFrame(FrameKind::kEnd, body, PutVarint(sent, body), &wire);
      flush();
      wire_bytes[r] += process_internal::CollectOutput(
          &reduce_crew, r, flags, &replay[r], &frames[r]);
    };
    reduce_crew.Run(policy, &metrics.shuffle,
                    {reduce_start, reduce_collect, [&](size_t r) {
                       replay[r].clear();
                       return std::exchange(frames[r], 0);
                     }});
    metrics.shuffle.reduce_bytes_on_wire =
        std::accumulate(wire_bytes.begin(), wire_bytes.end(), uint64_t{0});

    for (const std::vector<unsigned char>& output : replay) {
      process_internal::ReplayOutput(output, sink, records, &metrics);
    }
    if (counts_only) sink->EmitCount(metrics.outputs);
  }

  /// Map worker body: maps its slice and ships the pairs as it goes —
  /// after each input, its pairs are encoded into the link's current
  /// batch, which goes out when full — then a kEnd carrying the logical
  /// emission count. A combiner folds over the whole slice, so a round
  /// with one ships once its slice is mapped.
  static void MapChild(const RoundSpec<Input, Value>& spec,
                       std::span<const Input> slice, const CombineFn* combiner,
                       const std::optional<ArmedFault>& fault, int fd) {
    process_internal::FrameWriter writer(fd, fault, /*stream=*/true);
    std::vector<Pair> pairs;
    Emitter<Value> emitter(&pairs, combiner, 0);
    const auto ship = [&] {
      for (const Pair& pair : pairs) {
        writer.Write([&](std::vector<unsigned char>* wire) {
          RecordCodec<Value>::EncodePair(pair.first, pair.second, wire);
        });
      }
      pairs.clear();
    };
    for (const Input& input : slice) {
      spec.mapper(input, &emitter);
      if (combiner == nullptr) ship();
    }
    ship();
    writer.End(emitter.emitted());
  }

  /// Reduce worker body (forked child): the engine's own ReduceGroups,
  /// fed straight from the link, so each key is reduced as soon as its
  /// last pair arrives.
  static void ReduceChild(const RoundSpec<Input, Value>& spec,
                          const CombineFn* combiner,
                          const std::optional<ArmedFault>& fault, int fd) {
    process_internal::RunReduceChild(fd, fault, [&](auto* link, auto* out,
                                                    auto* records, auto* shard) {
      Pair pair;
      FrameView frame;
      const auto next = [&]() -> const Pair* {
        if (!process_internal::NextPair(link, &frame)) return nullptr;
        if (!DecodePair(frame, &pair)) {
          throw std::runtime_error("malformed pair frame from coordinator");
        }
        return &pair;
      };
      engine_internal::ReduceGroups<Value>(next, spec.reducer, combiner, out,
                                           records, shard);
    });
  }

  /// False unless `frame` is a well-formed kPair, decoded into *pair.
  static bool DecodePair(const FrameView& frame, Pair* pair) {
    return frame.kind == FrameKind::kPair &&
           RecordCodec<Value>::DecodePairBody(frame.body, frame.body_bytes,
                                              &pair->first, &pair->second) ==
               DecodeStatus::kOk;
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_PROCESS_BACKEND_H_
