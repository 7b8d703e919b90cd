#ifndef SMR_MAPREDUCE_PROCESS_BACKEND_H_
#define SMR_MAPREDUCE_PROCESS_BACKEND_H_

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/local_round.h"
#include "mapreduce/round.h"
#include "mapreduce/spill.h"
#include "mapreduce/worker_error.h"

namespace smr {

namespace process_internal {

/// POSIX plumbing for the process backend (defined in process_backend.cc,
/// the only translation unit that talks to fork/socketpair/poll directly).

/// Outcome of one link transfer under a liveness deadline.
enum class IoStatus {
  kOk,        // progress (for recv, *received == 0 means end of stream)
  kPeerGone,  // send hit EPIPE/ECONNRESET: the worker died
  kTimeout,   // no progress for the full deadline window
};

/// Sends all of [data, data+size). With timeout_ms >= 0 every wait is a
/// poll(POLLOUT) bounded by the deadline — the deadline is per *progress*,
/// not per call, so a link that keeps accepting bytes never times out.
/// timeout_ms < 0 blocks indefinitely (the pre-fault-tolerance behavior).
/// SIGPIPE is suppressed (MSG_NOSIGNAL); throws on unexpected failures.
IoStatus SendAll(int fd, const unsigned char* data, size_t size,
                 int timeout_ms);

/// Reads up to `capacity` bytes into `out` under the same deadline
/// discipline; kOk with *received == 0 is end of stream.
IoStatus RecvSome(int fd, unsigned char* out, size_t capacity, int timeout_ms,
                  size_t* received);

/// Blocking convenience wrappers (what child processes use — a child's
/// liveness is the coordinator's problem, not its own): SendAll returns
/// false when the peer is gone, RecvSome returns 0 at end of stream.
bool SendAll(int fd, const unsigned char* data, size_t size);
size_t RecvSome(int fd, unsigned char* out, size_t capacity);

/// Child-side failure path: ship the message as a kError frame (best
/// effort, truncated to fit any link's frame limit) and _exit(1).
[[noreturn]] void ChildFailAndExit(int fd, const char* what);

/// Child-side injected-fault path: kStallLink sleeps forever with the
/// link open (only the coordinator's deadline clears it); every other
/// kind dies on the spot via SIGKILL.
[[noreturn]] void ChildFaultAndHang(FaultKind kind);

/// Overwrites the kind byte of the frame starting at `frame_start` with a
/// value that is no FrameKind, so a strict decode of the stream throws at
/// exactly that frame. Used by children armed with kCorruptFrame.
void CorruptFrameKindByte(std::vector<unsigned char>* wire,
                          size_t frame_start);

/// One worker attempt's failure, thrown inside the coordinator's drain /
/// collect paths and caught by the per-slot retry loop — which either
/// respawns the worker or escalates to a WorkerError when the policy's
/// attempt budget is spent.
struct Fault {
  WorkerErrorKind kind = WorkerErrorKind::kCrash;
  std::string detail;
};

/// The round's fault bookkeeping, surfaced in ShuffleStats and preserved
/// across the retries-exhausted thread fallback.
struct FaultCounters {
  uint64_t retries = 0;
  uint64_t discarded = 0;
  uint64_t deadline_kills = 0;
};

struct Worker {
  pid_t pid = -1;
  int fd = -1;
};

/// The round's forked workers of one role ("map" / "reduce"), a fixed
/// array of slots so a failed worker can be respawned into its own slot.
/// The destructor SIGKILLs and reaps every live worker — a throw anywhere
/// in the round tears the crew down instead of leaking children.
class WorkerCrew {
 public:
  WorkerCrew(const char* role, size_t count);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// socketpair + fork into slot `index` (which must be empty — never
  /// spawned, or reaped/killed since). The child runs body(child_fd)
  /// inside a catch-all that turns exceptions into a kError frame and a
  /// nonzero exit. Throws std::runtime_error if the kernel refuses
  /// (socketpair/fork failure); the caller retries that like any fault.
  void Spawn(size_t index, const std::function<void(int)>& body);

  int fd(size_t index) const { return workers_[index].fd; }
  size_t size() const { return workers_.size(); }

  /// Closes the link and waits for the worker. Returns true for a clean
  /// exit(0); otherwise false with *how naming role, index, pid, and how
  /// it died. Reaping an already-empty slot is a clean no-op.
  bool Reap(size_t index, std::string* how);

  /// SIGKILLs and reaps the worker (no-op on an empty slot, returning "").
  /// Returns how it died — its real exit status if it was already dead,
  /// the SIGKILL otherwise. Never blocks on a live child: SIGKILL is not
  /// maskable. Safe to call after Reap.
  std::string KillAndReap(size_t index);

 private:
  const char* role_;
  std::vector<Worker> workers_;
};

/// Rolling decode window over one link: append received bytes, pull
/// complete frames. Decoding is strict (DecodeFrameChecked with this
/// link's frame limit): Next() returns kOk or kNeedMore and THROWS
/// std::runtime_error on structurally corrupt bytes — a corrupted length
/// prefix is rejected loudly, never silently buffered forever. A
/// FrameView from Next() aliases the buffer and is valid until the next
/// Append.
class FrameBuffer {
 public:
  explicit FrameBuffer(uint64_t frame_limit = kMaxFrameBytes)
      : frame_limit_(frame_limit) {}

  void Append(const unsigned char* data, size_t size);
  DecodeStatus Next(FrameView* frame);
  bool Drained() const { return position_ >= bytes_.size(); }

 private:
  uint64_t frame_limit_;
  std::vector<unsigned char> bytes_;
  size_t position_ = 0;
};

/// Reducer sink that serializes each emission as one frame ([varint
/// arity][varint node]*) into a shared output buffer — instances and
/// records interleave in emission order, so the coordinator's replay
/// preserves the engine's deterministic order. When `boundaries` is
/// non-null the start offset of every emitted frame is recorded, which is
/// what lets an armed child cut or corrupt its stream at an exact frame.
class FrameSink final : public InstanceSink {
 public:
  FrameSink(FrameKind kind, std::vector<unsigned char>* out,
            std::vector<size_t>* boundaries = nullptr)
      : kind_(kind), out_(out), boundaries_(boundaries) {}

  void Emit(std::span<const NodeId> assignment) override {
    if (boundaries_ != nullptr) boundaries_->push_back(out_->size());
    scratch_.clear();
    AppendVarint(assignment.size(), &scratch_);
    for (const NodeId node : assignment) AppendVarint(node, &scratch_);
    AppendFrame(kind_, scratch_.data(), scratch_.size(), out_);
  }

 private:
  FrameKind kind_;
  std::vector<unsigned char>* out_;
  std::vector<size_t>* boundaries_;
  std::vector<unsigned char> scratch_;
};

}  // namespace process_internal

/// BackendMode::kProcess: map and reduce workers are forked child
/// processes, and every shuffled pair really crosses the kernel as a
/// codec-framed record over a per-worker socketpair — the measured
/// communication cost the paper only models. The parent is the
/// coordinator: it forks map workers over contiguous input slices, drains
/// their pair streams (in worker order, so every parent-side structure is
/// deterministic) into per-link SpillChannels charged against the policy's
/// shuffle budget, merges them into grouped order, streams key-aligned
/// chunks to forked reduce workers, and replays their framed
/// instance/record/metrics output in worker order. Chunks cover ascending
/// disjoint key ranges and each child reduces the exact sequence
/// engine_internal::ReduceRange would see, so instances, order, and
/// semantic metrics are byte-identical to the thread backend
/// (tests/process_backend_test.cc pins this differentially).
///
/// Fault tolerance (tests/fault_tolerance_test.cc pins all of it):
///
///   * Retries. Each worker slot is an independent retry scope under
///     policy.retry: when an attempt fails — crash, reported child error,
///     deadline, corrupt frame, spawn or spill failure — the coordinator
///     discards every parent-side effect of that attempt (partial pairs,
///     buffered output frames, wire-byte accounting), waits out the
///     backoff, and re-forks the same input slice or key chunk. Because a
///     slice/chunk is a pure function of the inputs and the merged order,
///     re-execution is deterministic and the recovered round's output is
///     byte-identical to a fault-free run.
///   * Deadlines. With policy.worker_deadline_ms > 0 every link wait is a
///     poll() bounded by the deadline; a worker whose link makes no
///     progress for the whole window is SIGKILLed, reaped, and counted as
///     a failed attempt (ShuffleStats::deadline_kills). A hung child can
///     wedge the round for at most one window — never forever.
///   * Escalation. A slot that exhausts max_attempts throws WorkerError
///     (mapreduce/worker_error.h) naming the fault kind, role, worker,
///     and attempt count. Under OnExhausted::kFallbackThread the round is
///     rerun as the local round (mapreduce/local_round.h) instead —
///     nothing has been emitted yet (reduce output is replayed
///     only after every worker succeeds), so the fallback cannot
///     duplicate emissions (ShuffleStats::thread_fallbacks records it).
///   * Injection. policy.fault_injector (or $SMR_FAULT_PLAN — see
///     mapreduce/fault_injection.h) arms deterministic kill / stall /
///     corrupt-frame / spawn-failure / spill-failure faults at worker
///     spawn, which is how the recovery paths above are tested at all.
///
/// Wire accounting: ShuffleStats::map_bytes_on_wire /
/// link_bytes_on_wire[w] count the map->coordinator shuffle,
/// reduce_bytes_on_wire the coordinator<->reduce traffic; only the
/// *successful* attempt of each worker is counted, so wire stats of a
/// recovered round equal the fault-free run's. The semantic `bytes`
/// metric keeps the paper's key_value_pairs x record_size formula for
/// comparability across backends (bench/bench_backend_comm.cc plots one
/// against the other).
///
/// Crash safety: with retries off (max_attempts == 1, the default) a
/// worker death surfaces immediately as a WorkerError naming its role,
/// index, pid, and cause — never a hang; a child exception travels back
/// as a kError frame and rethrows in the parent with the child's message.
/// Worker teardown is RAII (WorkerCrew), so a throw mid-round leaks no
/// processes.
///
/// Stricter reducer contract than the thread backend: reducers run in
/// forked children, so ONLY what they emit through the ReduceContext
/// (instances, records, cost counters) reaches the parent. The thread
/// backend's narrow shared-slot allowance (writing counts[key] on a
/// shared structure) silently stays in the child's copy-on-write memory
/// — strategies relying on it (e.g. census's per-node table) should keep
/// the thread backend for that output. Retries tighten this further:
/// side effects outside the emitted stream (files, global state) may run
/// more than once.
template <typename Input, typename Value>
class ProcessShuffleBackend {
  static_assert(RecordCodec<Value>::kEncodable,
                "process backend requires a codec-encodable value type");
  using Pair = std::pair<uint64_t, Value>;
  using CombineFn = typename Emitter<Value>::CombineFn;
  using Fault = process_internal::Fault;
  using FaultCounters = process_internal::FaultCounters;

  /// Pair frames are batched into writes of about this size; links are
  /// drained in reads of the same size.
  static constexpr size_t kBatchBytes = 256 * 1024;

  /// Largest frame legal on this backend's links (a generous bound over
  /// pair / instance / record / metrics / error frames) — anything larger
  /// is a corrupted length prefix and rejected by the strict decoder.
  static constexpr uint64_t kLinkFrameLimit =
      std::max<uint64_t>(RecordCodec<Value>::kMaxFrameSize, uint64_t{1} << 20);

  /// One reduce worker's key-aligned slice of the merged pair stream —
  /// recorded at first send so a retried worker gets the identical chunk.
  struct Chunk {
    uint64_t start = 0;
    uint64_t count = 0;
  };

 public:
  /// Runs one declared round; see engine.h's RunRound for the contract.
  MapReduceMetrics RunRound(const RoundSpec<Input, Value>& spec,
                            std::span<const Input> inputs, InstanceSink* sink,
                            InstanceSink* records,
                            const ExecutionPolicy& policy,
                            uint64_t expected_pairs) const {
    FaultCounters counters;
    try {
      return RunProcessRound(spec, inputs, sink, records, policy, &counters);
    } catch (const WorkerError&) {
      if (policy.on_exhausted != OnExhausted::kFallbackThread) throw;
      // Graceful degradation: rerun the whole round as the local round
      // the policy would run without BackendMode::kProcess. Safe against
      // duplication because the process round emits nothing until every
      // worker has succeeded; identical by the shared determinism
      // contract.
      MapReduceMetrics metrics = RunLocalRound<Input, Value>(
          spec, inputs, sink, records, policy, expected_pairs);
      metrics.shuffle.worker_retries = counters.retries;
      metrics.shuffle.frames_discarded = counters.discarded;
      metrics.shuffle.deadline_kills = counters.deadline_kills;
      metrics.shuffle.thread_fallbacks = 1;
      return metrics;
    }
  }

 private:
  MapReduceMetrics RunProcessRound(const RoundSpec<Input, Value>& spec,
                                   std::span<const Input> inputs,
                                   InstanceSink* sink, InstanceSink* records,
                                   const ExecutionPolicy& policy,
                                   FaultCounters* counters) const {
    MapReduceMetrics metrics;
    metrics.input_records = inputs.size();
    metrics.key_space = spec.key_space;
    const auto finalize = [&metrics, counters] {
      metrics.shuffle.worker_retries = counters->retries;
      metrics.shuffle.frames_discarded = counters->discarded;
      metrics.shuffle.deadline_kills = counters->deadline_kills;
    };
    if (inputs.empty()) return metrics;

    FaultInjector* injector = policy.fault_injector != nullptr
                                  ? policy.fault_injector
                                  : EnvFaultInjector();
    const int timeout_ms =
        policy.worker_deadline_ms == 0
            ? -1
            : static_cast<int>(policy.worker_deadline_ms);
    const unsigned max_attempts = std::max(1u, policy.retry.max_attempts);

    const CombineFn* combiner =
        (policy.combine && spec.combiner) ? &spec.combiner : nullptr;

    // ------------------------------------------------------------- map
    // Fork one map worker per input slice. Children inherit the inputs by
    // fork (it is the *shuffle* whose bytes the paper costs, not the
    // input distribution); only emitted pairs come back over the wire.
    const unsigned map_workers = policy.EffectiveProcessWorkers(inputs.size());
    const std::vector<size_t> bounds =
        engine_internal::SliceBoundaries(inputs.size(), map_workers);

    // Pairs land in one SpillChannel per link, charged against the
    // policy's shuffle budget exactly as the spill backend's map workers
    // would be. A channel belongs to one *attempt*: discarding a failed
    // attempt destroys its channel (releasing pages and spill runs) and
    // the retry fills a fresh one.
    SpillBackend* spill_backend = policy.spill_backend;
    if (injector != nullptr) {
      spill_backend = injector->WrapSpillBackend(spill_backend);
    }
    PagePool pool(policy.shuffle_budget_bytes, spill_backend);
    std::vector<std::unique_ptr<SpillChannel<Value>>> channels(map_workers);

    metrics.shuffle.process_workers = map_workers;
    metrics.shuffle.link_bytes_on_wire.assign(map_workers, 0);
    std::vector<unsigned char> scratch(kBatchBytes);
    uint64_t logical_pairs = 0;

    process_internal::WorkerCrew map_crew("map", map_workers);
    for (unsigned t = 0; t < map_workers; ++t) {
      unsigned attempt = 0;
      while (true) {
        ++attempt;
        try {
          std::optional<ArmedFault> armed =
              injector != nullptr
                  ? injector->ArmSpawn(WorkerRole::kMap, t)
                  : std::nullopt;
          if (armed && armed->kind == FaultKind::kFailSpawn) {
            throw Fault{WorkerErrorKind::kSpawnFailure,
                        "injected spawn failure for map worker " +
                            std::to_string(t)};
          }
          std::optional<ArmedFault> child_fault;
          if (armed && armed->kind != FaultKind::kFailSpillAppend) {
            child_fault = armed;
          }
          try {
            map_crew.Spawn(t, [&spec, inputs, combiner, &bounds, t,
                               child_fault](int fd) {
              MapChild(spec, inputs, combiner, bounds[t], bounds[t + 1],
                       child_fault, fd);
            });
          } catch (const std::runtime_error& error) {
            throw Fault{WorkerErrorKind::kSpawnFailure, error.what()};
          }
          channels[t] = std::make_unique<SpillChannel<Value>>(&pool, 1);
          uint64_t link_bytes = 0;
          uint64_t worker_logical = 0;
          {
            ScopedSpillFailure spill_guard(
                injector,
                armed && armed->kind == FaultKind::kFailSpillAppend);
            DrainMapWorker(&map_crew, t, timeout_ms, channels[t].get(),
                           &scratch, &link_bytes, &worker_logical);
          }
          // Wire accounting commits only on success, so a recovered
          // round's stats equal the fault-free run's.
          metrics.shuffle.link_bytes_on_wire[t] = link_bytes;
          logical_pairs += worker_logical;
          break;
        } catch (const Fault& fault) {
          map_crew.KillAndReap(t);  // no-op when the path already reaped
          if (channels[t] != nullptr) {
            counters->discarded += channels[t]->PairsInPartition(0);
            channels[t].reset();  // releases the attempt's pool accounting
          }
          if (fault.kind == WorkerErrorKind::kDeadline) {
            ++counters->deadline_kills;
          }
          if (attempt >= max_attempts) {
            finalize();
            throw WorkerError(fault.kind, "map", t, attempt, fault.detail);
          }
          ++counters->retries;
          Backoff(policy.retry, attempt);
        }
      }
    }

    uint64_t total_pairs = 0;
    for (unsigned t = 0; t < map_workers; ++t) {
      total_pairs += channels[t]->PairsInPartition(0);
      metrics.shuffle.map_bytes_on_wire +=
          metrics.shuffle.link_bytes_on_wire[t];
    }
    engine_internal::CountMapPhase<Value>(logical_pairs, total_pairs,
                                          &metrics);
    metrics.shuffle.pages_spilled = pool.pages_spilled();
    metrics.shuffle.bytes_spilled = pool.bytes_spilled();
    metrics.shuffle.spill_files = pool.spill_files();
    if (total_pairs == 0) {
      finalize();
      return metrics;
    }

    // ---------------------------------------------------------- reduce
    const unsigned reduce_workers = policy.EffectiveProcessWorkers(total_pairs);
    metrics.shuffle.process_workers = map_workers + reduce_workers;
    const bool counts_only = sink != nullptr && sink->CountsOnly();
    const bool want_instances = sink != nullptr && !counts_only;
    const bool want_records = records != nullptr;
    const unsigned char flags = (want_instances ? 1u : 0u) |
                                (want_records ? 2u : 0u);

    process_internal::WorkerCrew reduce_crew("reduce", reduce_workers);
    std::vector<unsigned> attempts(reduce_workers, 0);
    std::vector<Chunk> chunks(reduce_workers);
    // "ready" = spawned and its whole chunk delivered; a failure at any
    // stage clears it and the collect loop respawns + resends.
    std::vector<char> ready(reduce_workers, 0);
    std::vector<uint64_t> send_bytes(reduce_workers, 0);

    const auto make_merger = [&channels, map_workers] {
      // AppendSources is re-callable: spilled runs and resident tails are
      // read-only after Finish(), so every rebuild merges the identical
      // stream — the determinism that makes chunk re-sends exact.
      std::vector<SpillSource<Value>> sources;
      for (unsigned t = 0; t < map_workers; ++t) {
        channels[t]->AppendSources(0, &sources);
      }
      return SpillMerger<Value>(std::move(sources));
    };
    const auto record_failure = [&](unsigned r, const Fault& fault) {
      reduce_crew.KillAndReap(r);
      if (fault.kind == WorkerErrorKind::kDeadline) {
        ++counters->deadline_kills;
      }
      if (attempts[r] >= max_attempts) {
        finalize();
        throw WorkerError(fault.kind, "reduce", r, attempts[r], fault.detail);
      }
      ++counters->retries;
    };
    const auto spawn_reduce = [&](unsigned r) {  // throws Fault
      std::optional<ArmedFault> armed =
          injector != nullptr ? injector->ArmSpawn(WorkerRole::kReduce, r)
                              : std::nullopt;
      if (armed && armed->kind == FaultKind::kFailSpawn) {
        throw Fault{WorkerErrorKind::kSpawnFailure,
                    "injected spawn failure for reduce worker " +
                        std::to_string(r)};
      }
      try {
        reduce_crew.Spawn(r, [&spec, combiner, armed](int fd) {
          ReduceChild(spec, combiner, armed, fd);
        });
      } catch (const std::runtime_error& error) {
        throw Fault{WorkerErrorKind::kSpawnFailure, error.what()};
      }
    };

    // Distribute: stream the merged grouped order (= the thread backend's
    // sorted concatenation) into key-aligned chunks of ~total/R pairs,
    // recording each worker's (start, count) so a failed worker's chunk
    // can be re-sent bit-for-bit. A child buffers its whole output until
    // it has read its end-of-chunk frame, so the coordinator can finish
    // writing to every child before reading from any — no send/recv
    // cycle, no deadlock. A send failure stops transmitting but keeps
    // consuming the merger to the chunk's key boundary: chunk geometry
    // never depends on which attempt failed.
    SpillMerger<Value> merger = make_merger();
    const uint64_t target = (total_pairs + reduce_workers - 1) /
                            reduce_workers;
    uint64_t key = 0;
    Value value{};
    bool pending = merger.Next(&key, &value);
    uint64_t consumed = 0;
    std::vector<unsigned char> wire;
    wire.reserve(kBatchBytes + RecordCodec<Value>::kMaxFrameSize);
    for (unsigned r = 0; r < reduce_workers; ++r) {
      chunks[r].start = consumed;
      bool transmitting = false;
      uint64_t sent = 0;
      try {
        ++attempts[r];
        spawn_reduce(r);
        transmitting = true;
      } catch (const Fault& fault) {
        record_failure(r, fault);
      }
      wire.clear();
      if (transmitting) AppendFrame(FrameKind::kHeader, &flags, 1, &wire);
      uint64_t in_chunk = 0;
      uint64_t prev_key = 0;
      while (pending) {
        // Extend past the target to the next key boundary: a key never
        // straddles two reduce workers. The last worker takes the rest.
        if (r + 1 < reduce_workers && in_chunk >= target &&
            key != prev_key) {
          break;
        }
        if (transmitting) {
          RecordCodec<Value>::EncodePair(key, value, &wire);
          if (wire.size() >= kBatchBytes) {
            try {
              SendToReduce(&reduce_crew, r, timeout_ms, wire.data(),
                           wire.size(), &sent);
              wire.clear();
            } catch (const Fault& fault) {
              transmitting = false;
              record_failure(r, fault);
            }
          }
        }
        prev_key = key;
        ++in_chunk;
        pending = merger.Next(&key, &value);
      }
      chunks[r].count = in_chunk;
      consumed += in_chunk;
      if (transmitting) {
        unsigned char body[kMaxVarintBytes];
        AppendFrame(FrameKind::kEnd, body, PutVarint(in_chunk, body), &wire);
        try {
          SendToReduce(&reduce_crew, r, timeout_ms, wire.data(), wire.size(),
                       &sent);
          send_bytes[r] = sent;
          ready[r] = 1;
        } catch (const Fault& fault) {
          record_failure(r, fault);
        }
      }
    }

    // Collect, in worker order. Output frames are validated as they
    // arrive but only *buffered* — replayed to the sinks after every
    // worker has succeeded, so a mid-round WorkerError (and the thread
    // fallback behind it) can never have half-emitted a round. A failed
    // worker discards its buffered frames, is respawned, gets its exact
    // chunk again, and is collected again.
    std::vector<std::vector<unsigned char>> replay(reduce_workers);
    std::vector<uint64_t> replay_frames(reduce_workers, 0);
    for (unsigned r = 0; r < reduce_workers; ++r) {
      while (true) {
        if (!ready[r]) {
          Backoff(policy.retry, attempts[r]);
          try {
            ++attempts[r];
            spawn_reduce(r);
            uint64_t sent = 0;
            ResendChunk(&reduce_crew, r, timeout_ms, chunks[r], flags,
                        make_merger, &sent);
            send_bytes[r] = sent;
            ready[r] = 1;
          } catch (const Fault& fault) {
            record_failure(r, fault);
            continue;
          }
        }
        uint64_t recv_bytes = 0;
        try {
          CollectReduceWorker(&reduce_crew, r, timeout_ms, want_instances,
                              want_records, &scratch, &replay[r],
                              &replay_frames[r], &recv_bytes);
          metrics.shuffle.reduce_bytes_on_wire += send_bytes[r] + recv_bytes;
          break;
        } catch (const Fault& fault) {
          counters->discarded += replay_frames[r];
          replay[r].clear();
          replay_frames[r] = 0;
          ready[r] = 0;
          record_failure(r, fault);
        }
      }
    }

    // Replay in worker order — chunks cover ascending disjoint key
    // ranges, and frames within a chunk are in emission order, so this is
    // exactly the serial engine's emission order.
    std::vector<NodeId> assignment;
    for (unsigned r = 0; r < reduce_workers; ++r) {
      process_internal::FrameBuffer buffer(kLinkFrameLimit);
      buffer.Append(replay[r].data(), replay[r].size());
      FrameView frame;
      while (buffer.Next(&frame) == DecodeStatus::kOk) {
        switch (frame.kind) {
          case FrameKind::kInstance:
            DecodeNodeList(frame, r, &assignment);
            sink->Emit(assignment);
            break;
          case FrameKind::kRecord:
            // Never null here: CollectReduceWorker rejects record frames
            // a round without a record sink did not request.
            DecodeNodeList(frame, r, &assignment);
            if (records != nullptr) records->Emit(assignment);
            break;
          case FrameKind::kMetrics:
            MergeMetricsFrame(frame, r, &metrics);
            break;
          default:
            ThrowMalformed("reduce", r);  // unreachable: validated above
        }
      }
    }
    if (counts_only) sink->EmitCount(metrics.outputs);
    finalize();
    return metrics;
  }

  /// Drains one map worker's attempt into its channel; throws Fault on
  /// any failure of the attempt (the caller discards the channel and
  /// retries or escalates).
  void DrainMapWorker(process_internal::WorkerCrew* crew, unsigned t,
                      int timeout_ms, SpillChannel<Value>* channel,
                      std::vector<unsigned char>* scratch,
                      uint64_t* link_bytes, uint64_t* logical_pairs) const {
    using process_internal::IoStatus;
    const std::string who = "map worker " + std::to_string(t);
    process_internal::FrameBuffer buffer(kLinkFrameLimit);
    bool ended = false;
    while (!ended) {
      size_t n = 0;
      const IoStatus io = process_internal::RecvSome(
          crew->fd(t), scratch->data(), scratch->size(), timeout_ms, &n);
      if (io == IoStatus::kTimeout) {
        const std::string how = crew->KillAndReap(t);
        throw Fault{WorkerErrorKind::kDeadline,
                    who + " made no progress for " +
                        std::to_string(timeout_ms) + " ms; killed (" + how +
                        ")"};
      }
      if (n == 0) {
        std::string how;
        crew->Reap(t, &how);
        throw Fault{WorkerErrorKind::kCrash,
                    how + " before finishing its stream"};
      }
      *link_bytes += n;
      buffer.Append(scratch->data(), n);
      FrameView frame;
      while (!ended) {
        DecodeStatus status = DecodeStatus::kNeedMore;
        try {
          status = buffer.Next(&frame);
        } catch (const std::runtime_error& error) {
          throw Fault{WorkerErrorKind::kCorruptFrame,
                      "corrupt frame on " + who + "'s link: " + error.what()};
        }
        if (status != DecodeStatus::kOk) break;
        switch (frame.kind) {
          case FrameKind::kPair: {
            uint64_t pair_key = 0;
            Value pair_value{};
            if (RecordCodec<Value>::DecodePairBody(
                    frame.body, frame.body_bytes, &pair_key, &pair_value) !=
                DecodeStatus::kOk) {
              throw Fault{WorkerErrorKind::kCorruptFrame,
                          "corrupt pair frame body on " + who + "'s link"};
            }
            (*channel->buckets())[0].emplace_back(pair_key, pair_value);
            try {
              channel->NotifyAppend();
            } catch (const std::runtime_error& error) {
              throw Fault{WorkerErrorKind::kSpillFailure, error.what()};
            }
            break;
          }
          case FrameKind::kEnd:
            *logical_pairs = DecodeCount(frame, "map", t);
            ended = true;
            break;
          case FrameKind::kError: {
            std::string message(
                reinterpret_cast<const char*>(frame.body), frame.body_bytes);
            std::string how;
            crew->Reap(t, &how);
            throw Fault{WorkerErrorKind::kChildError,
                        who + " failed: " + message};
          }
          default:
            throw Fault{WorkerErrorKind::kCorruptFrame,
                        "unexpected frame kind on " + who + "'s link"};
        }
      }
    }
    if (!buffer.Drained()) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "trailing bytes after " + who + "'s end-of-stream frame"};
    }
    try {
      channel->Finish();
    } catch (const std::runtime_error& error) {
      throw Fault{WorkerErrorKind::kSpillFailure, error.what()};
    }
    std::string how;
    if (!crew->Reap(t, &how)) {
      throw Fault{WorkerErrorKind::kCrash,
                  how + " after finishing its stream"};
    }
  }

  /// One deadline-bounded write to a reduce worker; accumulates *sent and
  /// throws Fault when the worker died or stopped reading.
  static void SendToReduce(process_internal::WorkerCrew* crew, unsigned r,
                           int timeout_ms, const unsigned char* data,
                           size_t size, uint64_t* sent) {
    using process_internal::IoStatus;
    const IoStatus io =
        process_internal::SendAll(crew->fd(r), data, size, timeout_ms);
    if (io == IoStatus::kOk) {
      *sent += size;
      return;
    }
    const std::string who = "reduce worker " + std::to_string(r);
    if (io == IoStatus::kTimeout) {
      const std::string how = crew->KillAndReap(r);
      throw Fault{WorkerErrorKind::kDeadline,
                  who + " read no chunk bytes for " +
                      std::to_string(timeout_ms) + " ms; killed (" + how +
                      ")"};
    }
    const std::string how = crew->KillAndReap(r);
    throw Fault{WorkerErrorKind::kCrash,
                how + " while receiving its chunk"};
  }

  /// Re-sends reduce worker r's exact chunk to its freshly spawned
  /// replacement: rebuild the merged stream, skip to the chunk's start,
  /// stream its count pairs. Throws Fault on failure.
  template <typename MakeMerger>
  void ResendChunk(process_internal::WorkerCrew* crew, unsigned r,
                   int timeout_ms, const Chunk& chunk, unsigned char flags,
                   const MakeMerger& make_merger, uint64_t* sent) const {
    SpillMerger<Value> merger = make_merger();
    uint64_t key = 0;
    Value value{};
    for (uint64_t skip = 0; skip < chunk.start; ++skip) {
      merger.Next(&key, &value);
    }
    std::vector<unsigned char> wire;
    wire.reserve(kBatchBytes + RecordCodec<Value>::kMaxFrameSize);
    AppendFrame(FrameKind::kHeader, &flags, 1, &wire);
    for (uint64_t i = 0; i < chunk.count; ++i) {
      merger.Next(&key, &value);
      RecordCodec<Value>::EncodePair(key, value, &wire);
      if (wire.size() >= kBatchBytes) {
        SendToReduce(crew, r, timeout_ms, wire.data(), wire.size(), sent);
        wire.clear();
      }
    }
    unsigned char body[kMaxVarintBytes];
    AppendFrame(FrameKind::kEnd, body, PutVarint(chunk.count, body), &wire);
    SendToReduce(crew, r, timeout_ms, wire.data(), wire.size(), sent);
  }

  /// Collects one reduce worker's attempt: validates every frame as it
  /// arrives and buffers it for the post-success replay. Throws Fault on
  /// any failure of the attempt.
  void CollectReduceWorker(process_internal::WorkerCrew* crew, unsigned r,
                           int timeout_ms, bool want_instances,
                           bool want_records,
                           std::vector<unsigned char>* scratch,
                           std::vector<unsigned char>* replay,
                           uint64_t* frames, uint64_t* recv_bytes) const {
    using process_internal::IoStatus;
    const std::string who = "reduce worker " + std::to_string(r);
    process_internal::FrameBuffer buffer(kLinkFrameLimit);
    std::vector<NodeId> assignment;
    bool ended = false;
    while (!ended) {
      size_t n = 0;
      const IoStatus io = process_internal::RecvSome(
          crew->fd(r), scratch->data(), scratch->size(), timeout_ms, &n);
      if (io == IoStatus::kTimeout) {
        const std::string how = crew->KillAndReap(r);
        throw Fault{WorkerErrorKind::kDeadline,
                    who + " made no progress for " +
                        std::to_string(timeout_ms) + " ms; killed (" + how +
                        ")"};
      }
      if (n == 0) {
        std::string how;
        crew->Reap(r, &how);
        throw Fault{WorkerErrorKind::kCrash,
                    how + " before finishing its stream"};
      }
      *recv_bytes += n;
      buffer.Append(scratch->data(), n);
      FrameView frame;
      while (!ended) {
        DecodeStatus status = DecodeStatus::kNeedMore;
        try {
          status = buffer.Next(&frame);
        } catch (const std::runtime_error& error) {
          throw Fault{WorkerErrorKind::kCorruptFrame,
                      "corrupt frame on " + who + "'s link: " + error.what()};
        }
        if (status != DecodeStatus::kOk) break;
        switch (frame.kind) {
          case FrameKind::kInstance:
          case FrameKind::kRecord:
            if ((frame.kind == FrameKind::kInstance && !want_instances) ||
                (frame.kind == FrameKind::kRecord && !want_records)) {
              throw Fault{WorkerErrorKind::kCorruptFrame,
                          "unrequested output frame on " + who + "'s link"};
            }
            ValidateNodeList(frame, who, &assignment);
            AppendFrame(frame.kind, frame.body, frame.body_bytes, replay);
            ++*frames;
            break;
          case FrameKind::kMetrics:
            ValidateMetricsFrame(frame, who);
            AppendFrame(frame.kind, frame.body, frame.body_bytes, replay);
            ++*frames;
            break;
          case FrameKind::kEnd:
            ended = true;
            break;
          case FrameKind::kError: {
            std::string message(
                reinterpret_cast<const char*>(frame.body), frame.body_bytes);
            std::string how;
            crew->Reap(r, &how);
            throw Fault{WorkerErrorKind::kChildError,
                        who + " failed: " + message};
          }
          default:
            throw Fault{WorkerErrorKind::kCorruptFrame,
                        "unexpected frame kind on " + who + "'s link"};
        }
      }
    }
    if (!buffer.Drained()) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "trailing bytes after " + who + "'s end-of-stream frame"};
    }
    std::string how;
    if (!crew->Reap(r, &how)) {
      throw Fault{WorkerErrorKind::kCrash,
                  how + " after finishing its stream"};
    }
  }

  /// Sleep before retrying after `failed_attempts` failures:
  /// base * multiplier^(failed_attempts - 1), capped at 10 s.
  static void Backoff(const RetryPolicy& retry, unsigned failed_attempts) {
    if (retry.base_backoff_ms == 0 || failed_attempts == 0) return;
    const double factor =
        std::pow(std::max(1.0, retry.backoff_multiplier),
                 static_cast<double>(failed_attempts - 1));
    const double ms =
        std::min(static_cast<double>(retry.base_backoff_ms) * factor,
                 10'000.0);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(ms)));
  }

  /// Map worker body (runs in the forked child): map the slice into a
  /// private buffer — per-child combining, exactly like a thread-backend
  /// map worker — then ship every pair as a frame, batched, and finish
  /// with kEnd carrying the logical emission count. An armed fault
  /// switches to an unbatched wire with recorded frame boundaries so the
  /// kill / stall / corruption lands at an exact frame; kill and stall
  /// always fire before the end-of-stream frame, so the coordinator
  /// always notices.
  static void MapChild(const RoundSpec<Input, Value>& spec,
                       std::span<const Input> inputs,
                       const CombineFn* combiner, size_t begin, size_t end,
                       const std::optional<ArmedFault>& fault, int fd) {
    std::vector<Pair> pairs;
    Emitter<Value> emitter(&pairs, combiner, 0);
    for (size_t i = begin; i < end; ++i) {
      spec.mapper(inputs[i], &emitter);
    }
    if (!fault) {
      std::vector<unsigned char> wire;
      wire.reserve(kBatchBytes + RecordCodec<Value>::kMaxFrameSize);
      for (const Pair& pair : pairs) {
        RecordCodec<Value>::EncodePair(pair.first, pair.second, &wire);
        if (wire.size() >= kBatchBytes) {
          if (!process_internal::SendAll(fd, wire.data(), wire.size())) {
            _exit(2);  // coordinator is gone; nothing left to report to
          }
          wire.clear();
        }
      }
      unsigned char body[kMaxVarintBytes];
      AppendFrame(FrameKind::kEnd, body, PutVarint(emitter.emitted(), body),
                  &wire);
      if (!process_internal::SendAll(fd, wire.data(), wire.size())) _exit(2);
      return;
    }
    std::vector<unsigned char> wire;
    std::vector<size_t> starts;
    starts.reserve(pairs.size() + 1);
    for (const Pair& pair : pairs) {
      starts.push_back(wire.size());
      RecordCodec<Value>::EncodePair(pair.first, pair.second, &wire);
    }
    if (fault->kind == FaultKind::kKillAfterFrames ||
        fault->kind == FaultKind::kStallLink) {
      const uint64_t keep =
          std::min<uint64_t>(fault->after_frames, pairs.size());
      const size_t cut = keep < starts.size() ? starts[keep] : wire.size();
      process_internal::SendAll(fd, wire.data(), cut);
      process_internal::ChildFaultAndHang(fault->kind);
    }
    starts.push_back(wire.size());
    unsigned char body[kMaxVarintBytes];
    AppendFrame(FrameKind::kEnd, body, PutVarint(emitter.emitted(), body),
                &wire);
    const size_t target =
        std::min<size_t>(fault->after_frames, starts.size() - 1);
    process_internal::CorruptFrameKindByte(&wire, starts[target]);
    if (!process_internal::SendAll(fd, wire.data(), wire.size())) _exit(2);
  }

  /// Reduce worker body (runs in the forked child): read the whole chunk,
  /// reduce it with the engine's own ReduceRange (so grouping, combining,
  /// and cost accounting are the thread backend's code, not a copy), and
  /// only then send the buffered output — interleaved instance/record
  /// frames in emission order, the shard metrics, and kEnd. An armed
  /// fault cuts or corrupts that output at an exact frame boundary; kill
  /// and stall never deliver the end-of-stream frame.
  static void ReduceChild(const RoundSpec<Input, Value>& spec,
                          const CombineFn* combiner,
                          const std::optional<ArmedFault>& fault, int fd) {
    std::vector<Pair> pairs;
    unsigned char flags = 0;
    process_internal::FrameBuffer buffer;
    std::vector<unsigned char> scratch(kBatchBytes);
    bool ended = false;
    while (!ended) {
      const size_t n =
          process_internal::RecvSome(fd, scratch.data(), scratch.size());
      if (n == 0) {
        throw std::runtime_error("coordinator hung up mid-chunk");
      }
      buffer.Append(scratch.data(), n);
      FrameView frame;
      while (!ended && buffer.Next(&frame) == DecodeStatus::kOk) {
        switch (frame.kind) {
          case FrameKind::kHeader:
            flags = frame.body_bytes >= 1 ? frame.body[0] : 0;
            break;
          case FrameKind::kPair: {
            uint64_t key = 0;
            Value value{};
            if (RecordCodec<Value>::DecodePairBody(
                    frame.body, frame.body_bytes, &key, &value) !=
                DecodeStatus::kOk) {
              throw std::runtime_error("malformed pair frame from coordinator");
            }
            pairs.emplace_back(key, value);
            break;
          }
          case FrameKind::kEnd:
            ended = true;
            break;
          default:
            throw std::runtime_error("unexpected frame from coordinator");
        }
      }
    }

    MapReduceMetrics shard;
    std::vector<unsigned char> out;
    std::vector<size_t> boundaries;
    std::vector<size_t>* bounds = fault ? &boundaries : nullptr;
    process_internal::FrameSink instances(FrameKind::kInstance, &out, bounds);
    process_internal::FrameSink record_sink(FrameKind::kRecord, &out, bounds);
    engine_internal::ReduceRange(
        pairs, 0, pairs.size(), spec.reducer, combiner,
        (flags & 1u) ? static_cast<InstanceSink*>(&instances) : nullptr,
        (flags & 2u) ? static_cast<InstanceSink*>(&record_sink) : nullptr,
        &shard);

    if (fault) boundaries.push_back(out.size());
    unsigned char body[7 * kMaxVarintBytes];
    size_t used = 0;
    used += PutVarint(shard.distinct_keys, body + used);
    used += PutVarint(shard.max_reducer_input, body + used);
    used += PutVarint(shard.outputs, body + used);
    used += PutVarint(shard.reduce_cost.edges_scanned, body + used);
    used += PutVarint(shard.reduce_cost.candidates, body + used);
    used += PutVarint(shard.reduce_cost.index_probes, body + used);
    used += PutVarint(shard.reduce_cost.outputs, body + used);
    AppendFrame(FrameKind::kMetrics, body, used, &out);
    if (fault) boundaries.push_back(out.size());
    unsigned char end_body[kMaxVarintBytes];
    AppendFrame(FrameKind::kEnd, end_body, PutVarint(0, end_body), &out);

    if (fault) {
      const size_t target =
          std::min<size_t>(fault->after_frames, boundaries.size() - 1);
      if (fault->kind == FaultKind::kCorruptFrame) {
        process_internal::CorruptFrameKindByte(&out, boundaries[target]);
      } else {
        // boundaries.back() is the end-of-stream frame's start, so the
        // cut always withholds it — the fault is never silent.
        process_internal::SendAll(fd, out.data(), boundaries[target]);
        process_internal::ChildFaultAndHang(fault->kind);
      }
    }
    if (!process_internal::SendAll(fd, out.data(), out.size())) _exit(2);
  }

  [[noreturn]] static void ThrowMalformed(const char* role, size_t index) {
    throw std::runtime_error("process backend: malformed frame on " +
                             std::string(role) + " worker " +
                             std::to_string(index) + "'s link");
  }

  static uint64_t DecodeCount(const FrameView& frame, const char* role,
                              size_t index) {
    uint64_t count = 0;
    size_t used = 0;
    if (GetVarint(frame.body, frame.body_bytes, &count, &used) !=
            DecodeStatus::kOk ||
        used != frame.body_bytes) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "corrupt end-of-stream count from " + std::string(role) +
                      " worker " + std::to_string(index)};
    }
    return count;
  }

  /// Collect-time validation twin of DecodeNodeList: throws Fault (so the
  /// attempt is retried) instead of a terminal runtime_error.
  static void ValidateNodeList(const FrameView& frame, const std::string& who,
                               std::vector<NodeId>* out) {
    size_t position = 0;
    size_t used = 0;
    uint64_t count = 0;
    out->clear();
    if (GetVarint(frame.body, frame.body_bytes, &count, &used) !=
        DecodeStatus::kOk) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "corrupt output frame body on " + who + "'s link"};
    }
    position = used;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t node = 0;
      if (GetVarint(frame.body + position, frame.body_bytes - position,
                    &node, &used) != DecodeStatus::kOk) {
        throw Fault{WorkerErrorKind::kCorruptFrame,
                    "corrupt output frame body on " + who + "'s link"};
      }
      position += used;
    }
    if (position != frame.body_bytes) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "corrupt output frame body on " + who + "'s link"};
    }
  }

  static void ValidateMetricsFrame(const FrameView& frame,
                                   const std::string& who) {
    uint64_t field = 0;
    size_t position = 0;
    for (int i = 0; i < 7; ++i) {
      size_t used = 0;
      if (GetVarint(frame.body + position, frame.body_bytes - position,
                    &field, &used) != DecodeStatus::kOk) {
        throw Fault{WorkerErrorKind::kCorruptFrame,
                    "corrupt metrics frame on " + who + "'s link"};
      }
      position += used;
    }
    if (position != frame.body_bytes) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "corrupt metrics frame on " + who + "'s link"};
    }
  }

  /// Replay-time decode of a frame CollectReduceWorker already validated.
  static void DecodeNodeList(const FrameView& frame, size_t index,
                             std::vector<NodeId>* out) {
    out->clear();
    size_t position = 0;
    size_t used = 0;
    uint64_t count = 0;
    if (GetVarint(frame.body, frame.body_bytes, &count, &used) !=
        DecodeStatus::kOk) {
      ThrowMalformed("reduce", index);
    }
    position = used;
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t node = 0;
      if (GetVarint(frame.body + position, frame.body_bytes - position,
                    &node, &used) != DecodeStatus::kOk) {
        ThrowMalformed("reduce", index);
      }
      position += used;
      out->push_back(static_cast<NodeId>(node));
    }
    if (position != frame.body_bytes) ThrowMalformed("reduce", index);
  }

  static void MergeMetricsFrame(const FrameView& frame, size_t index,
                                MapReduceMetrics* metrics) {
    uint64_t fields[7] = {0};
    size_t position = 0;
    for (uint64_t& field : fields) {
      size_t used = 0;
      if (GetVarint(frame.body + position, frame.body_bytes - position,
                    &field, &used) != DecodeStatus::kOk) {
        ThrowMalformed("reduce", index);
      }
      position += used;
    }
    if (position != frame.body_bytes) ThrowMalformed("reduce", index);
    MapReduceMetrics shard;
    shard.distinct_keys = fields[0];
    shard.max_reducer_input = fields[1];
    shard.outputs = fields[2];
    shard.reduce_cost.edges_scanned = fields[3];
    shard.reduce_cost.candidates = fields[4];
    shard.reduce_cost.index_probes = fields[5];
    shard.reduce_cost.outputs = fields[6];
    metrics->MergeReduceShard(shard);
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_PROCESS_BACKEND_H_
