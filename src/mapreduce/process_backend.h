#ifndef SMR_MAPREDUCE_PROCESS_BACKEND_H_
#define SMR_MAPREDUCE_PROCESS_BACKEND_H_

#include <unistd.h>

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
#include "mapreduce/round.h"
#include "mapreduce/worker_error.h"

namespace smr {

namespace process_internal {

// The Value-independent half of the backend, defined in process_backend.cc
// (the only file that calls fork/socketpair/poll).

/// One worker attempt's failure, thrown by a crew's start/collect hooks;
/// WorkerCrew::Run restarts the slot or escalates to a WorkerError.
struct Fault {
  WorkerErrorKind kind = WorkerErrorKind::kCrash;
  std::string detail;
};

/// Links carry pair frames in writes, and are read, in ~256 KiB batches.
inline constexpr size_t kBatchBytes = 256 * 1024;

/// The round's forked workers of one role, in fixed slots a failed worker
/// is respawned into, and the one retry loop both roles run. Link waits
/// honor the progress deadline `timeout_ms` (< 0 blocks); frames decode
/// strictly under the larger of `pair_frame_bytes` and 1 MiB (output and
/// error frames), so a corrupted length prefix is rejected. The destructor
/// kills and reaps every live worker: a throw anywhere leaks no children.
class WorkerCrew {
 public:
  /// One slot's hooks for Run: `start` forks the worker, `collect` sends
  /// it any input and reads its output (both throw Fault), `discard` drops
  /// a failed attempt's parent-side state and returns its frame count.
  struct Tasks {
    std::function<void(size_t)> start;
    std::function<void(size_t)> collect;
    std::function<uint64_t(size_t)> discard;
  };
  using Body = std::function<void(int fd, const std::optional<ArmedFault>&)>;

  WorkerCrew(WorkerRole role, size_t count, int timeout_ms,
             uint64_t pair_frame_bytes);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Runs in passes: this thread starts every pending slot, then all of
  /// them collect at once on the policy's pool, each touching only its own
  /// slot. After the join, failed slots are killed, discarded, counted and
  /// backed off in slot order, then restarted in the next pass; the lowest
  /// one to exhaust retry.max_attempts throws WorkerError. Retries,
  /// discarded frames, deadline kills and pool use add up in *stats.
  void Run(const ExecutionPolicy& policy, ShuffleStats* stats,
           const Tasks& tasks);

  /// Arms the attempt with `injector` (may be null) and forks slot
  /// `index`; the child runs body(fd, armed child-side fault), turning an
  /// exception into a kError frame and exit(1). Throws
  /// Fault{kSpawnFailure}; returns the armed fault.
  std::optional<ArmedFault> Spawn(size_t index, FaultInjector* injector,
                                  const Body& body);

  /// Sends [data, data + size) to the worker; throws Fault when it died
  /// or stopped reading for the deadline.
  void Send(size_t index, const unsigned char* data, size_t size);

  /// Hands every frame before the worker's kEnd to `on_frame`, reaps it,
  /// adds the link's bytes to *bytes, and returns kEnd's count. Throws
  /// Fault on a crash, child error, deadline, corrupt bytes, bad exit.
  uint64_t Read(size_t index,
                const std::function<void(const FrameView&)>& on_frame,
                uint64_t* bytes);

  /// "map worker 3" — how messages name slot `index`.
  std::string Who(size_t index) const;

 private:
  struct Worker { pid_t pid = -1; int fd = -1; };
  bool Reap(size_t index, std::string* how);
  std::string KillAndReap(size_t index);

  WorkerRole role_;
  std::vector<Worker> workers_;
  int timeout_ms_;
  uint64_t frame_limit_;
};

/// Reduce worker r's collect: validates each output frame against the
/// requested `flags` (1 = instances, 2 = records) and buffers it into
/// *replay, counting *frames. Returns the link's bytes; throws Fault.
uint64_t CollectOutput(WorkerCrew* crew, size_t r, unsigned char flags,
                       std::vector<unsigned char>* replay, uint64_t* frames);

/// Replays one worker's collected output: instances into `sink`, records
/// into `records`, its metrics frame into *metrics.
void ReplayOutput(const std::vector<unsigned char>& replay, InstanceSink* sink,
                  InstanceSink* records, MapReduceMetrics* metrics);

/// Child side; a child's link IO blocks (its liveness is the
/// coordinator's problem). SendAll returns false when the peer is gone.
bool SendAll(int fd, const unsigned char* data, size_t size);

/// Sends a child's finished stream; `starts` holds every frame's offset.
/// Unarmed, the whole stream goes out. An armed kill or stall sends the
/// frames before starts[min(after, last)] and dies or hangs; an armed
/// corrupt-frame breaks that frame's kind byte and sends it all.
void ShipStream(int fd, std::vector<unsigned char>* wire,
                const std::vector<size_t>& starts,
                const std::optional<ArmedFault>& fault);

/// A reduce worker's whole life after the fork: reads its input up to
/// the coordinator's kEnd (pair frames go to `on_pair`), runs `reduce`
/// into frame-encoding sinks for the instances and records the header's
/// flags asked for, and ships the output — instance/record frames in
/// emission order, a metrics frame, kEnd — through ShipStream.
void RunReduceChild(
    int fd, const std::optional<ArmedFault>& fault,
    const std::function<void(const FrameView&)>& on_pair,
    const std::function<void(InstanceSink*, InstanceSink*,
                             MapReduceMetrics*)>& reduce);

}  // namespace process_internal

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
/// Faults (tests/fault_tolerance_test.cc), under policy.retry: a failed
/// attempt is killed and its parent-side effects (channel, buffered
/// output, wire bytes) discarded; the slot re-forks on the same slice or
/// group, so recovery is byte-identical. An exhausted slot throws
/// WorkerError, or under kFallbackThread the round reruns locally — safe,
/// as output is replayed only after every worker succeeded. Wire bytes
/// count successful attempts only.
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
        if (frame.kind != FrameKind::kPair ||
            RecordCodec<Value>::DecodePairBody(frame.body, frame.body_bytes,
                                               &pair.first, &pair.second) !=
                DecodeStatus::kOk) {
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

    // Reduce: worker r is sent its partition group and buffers its whole
    // output until its input's kEnd — so each link's send completes before
    // its collect, with no send/recv cycle.
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

  /// Map worker body: map and combine the slice, then ship its pairs and a
  /// kEnd carrying the logical emission count — in batches, or (armed)
  /// whole, so ShipStream can cut it at an exact frame.
  static void MapChild(const RoundSpec<Input, Value>& spec,
                       std::span<const Input> slice, const CombineFn* combiner,
                       const std::optional<ArmedFault>& fault, int fd) {
    std::vector<Pair> pairs;
    Emitter<Value> emitter(&pairs, combiner, 0);
    for (const Input& input : slice) spec.mapper(input, &emitter);
    std::vector<unsigned char> wire;
    std::vector<size_t> starts;
    for (const Pair& pair : pairs) {
      if (fault) starts.push_back(wire.size());
      RecordCodec<Value>::EncodePair(pair.first, pair.second, &wire);
      if (!fault && wire.size() >= process_internal::kBatchBytes) {
        // A failed send means the coordinator is gone: nobody to report to.
        if (!process_internal::SendAll(fd, wire.data(), wire.size())) _exit(2);
        wire.clear();
      }
    }
    starts.push_back(wire.size());
    unsigned char body[kMaxVarintBytes];
    AppendFrame(FrameKind::kEnd, body, PutVarint(emitter.emitted(), body),
                &wire);
    process_internal::ShipStream(fd, &wire, starts, fault);
  }

  /// Reduce worker body (forked child): read the whole partition group,
  /// then reduce it with the engine's own ReduceRange.
  static void ReduceChild(const RoundSpec<Input, Value>& spec,
                          const CombineFn* combiner,
                          const std::optional<ArmedFault>& fault, int fd) {
    std::vector<Pair> pairs;
    const auto on_pair = [&](const FrameView& frame) {
      Pair pair;
      if (RecordCodec<Value>::DecodePairBody(frame.body, frame.body_bytes,
                                             &pair.first, &pair.second) !=
          DecodeStatus::kOk) {
        throw std::runtime_error("malformed pair frame from coordinator");
      }
      pairs.push_back(pair);
    };
    process_internal::RunReduceChild(
        fd, fault, on_pair,
        [&](InstanceSink* instances, InstanceSink* records,
            MapReduceMetrics* shard) {
          engine_internal::ReduceRange(pairs, 0, pairs.size(), spec.reducer,
                                       combiner, instances, records, shard);
        });
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_PROCESS_BACKEND_H_
