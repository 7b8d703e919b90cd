#ifndef SMR_MAPREDUCE_EXECUTION_POLICY_H_
#define SMR_MAPREDUCE_EXECUTION_POLICY_H_

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "mapreduce/thread_pool.h"
#include "util/enum_registry.h"

namespace smr {

class SpillBackend;    // mapreduce/spill.h
class FaultInjector;   // mapreduce/fault_injection.h

/// Task-level retry budget for the process backend's fault tolerance
/// (mapreduce/process_backend.h): a map/reduce worker whose attempt fails
/// (crash, deadline, corrupt frame, spawn or spill failure) is re-forked
/// on the same input slice/partition up to max_attempts times total, with
/// exponential backoff between attempts. Deterministic re-execution plus
/// the coordinator discarding the failed attempt's partial frames keep
/// results byte-identical to a fault-free run.
struct RetryPolicy {
  /// Total attempts per worker slot (1 = no retries, the default — a
  /// failure surfaces immediately as a WorkerError).
  unsigned max_attempts = 1;
  /// Sleep before retry k (k >= 1) is base_backoff_ms *
  /// backoff_multiplier^(k-1), capped at 10 s. 0 = retry immediately
  /// (what tests want; a deployment wants some).
  unsigned base_backoff_ms = 0;
  double backoff_multiplier = 2.0;
};

/// What the process backend does when one worker slot exhausts its
/// RetryPolicy budget. Registered names are the policy_spec tokens (see
/// util/enum_registry.h): the spec parser and DescribePolicy both read the
/// registry, so a new mode round-trips with zero parser edits.
#define SMR_ON_EXHAUSTED_MODES(X)                                          \
  /* Throw the WorkerError (default). */                                   \
  X(kFail, 0, "fail")                                                      \
  /* Re-run the whole round as the local round (threads, plus the spill    \
     store under a budget) — graceful degradation for callers that prefer  \
     a slower correct answer over an exception. Results are identical by   \
     the shared determinism contract; ShuffleStats::thread_fallbacks       \
     records that it happened. */                                          \
  X(kFallbackThread, 1, "fallback")

enum class OnExhausted { SMR_ON_EXHAUSTED_MODES(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(OnExhausted, SMR_ON_EXHAUSTED_MODES);

/// Where a round's map and reduce workers run. Like every other policy
/// knob this changes host behavior only — instances, order, and semantic
/// metrics are identical across backends (the contract pinned by
/// tests/process_backend_test.cc). Registered names are the policy_spec
/// tokens ("process" optionally takes a :N suffix, handled by the parser).
#define SMR_BACKEND_MODES(X)                                               \
  /* Workers are threads of this process sharing the address space — the   \
     default, and the only mode whose shuffle never serializes a pair. */  \
  X(kThread, 0, "thread")                                                  \
  /* Map and reduce workers are forked child processes exchanging          \
     codec-framed pairs with a parent-side coordinator over socketpairs    \
     (mapreduce/process_backend.h). Every shuffled byte really crosses a   \
     kernel boundary and is counted in ShuffleStats::*_bytes_on_wire —     \
     the measured communication cost the paper's model predicts. */        \
  X(kProcess, 1, "process")

enum class BackendMode { SMR_BACKEND_MODES(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(BackendMode, SMR_BACKEND_MODES);

/// How the simulated map-reduce engine schedules its work on the host.
///
/// The policy changes only wall-clock behavior, never semantics: for every
/// thread count, partition count, budget, and backend the engine produces
/// byte-identical metrics and emits the same instances to the sink in the
/// same order as the serial engine (reducers in ascending key order, values
/// in mapper emission order).
struct ExecutionPolicy {
  /// Number of worker threads for the map and reduce phases. 1 = run
  /// inline on the calling thread (the original serial engine).
  unsigned num_threads = 1;

  /// Key-range partition count of the shuffle (mapreduce/local_round.h).
  /// 0 = auto: a small multiple of num_threads so that the dynamic
  /// partition queue keeps all workers busy even when key ranges are
  /// skewed. 1 = one global partition, grouped in a single pass.
  unsigned shuffle_partitions = 0;

  /// Shuffle memory budget in bytes; 0 = unbounded (all emissions stay in
  /// memory). Every round's emission buffers live in one bucket store
  /// (mapreduce/local_round.h) backed by the paged spill store
  /// (mapreduce/spill.h). With a budget, map workers charge the job's page
  /// pool in fixed steps and, at a step that leaves it over budget, spill
  /// runs grouped by GroupByKey to temp files once they hold the spill
  /// floor; the reduce phase streams a spilled partition back as a merge of
  /// its runs plus the resident tails, and groups any other partition as
  /// an unbudgeted round does. Results — instances, emission order, and
  /// semantic metrics — are byte-identical to the unbounded run at every
  /// thread count; only host-side ShuffleStats (spill and grouping
  /// counters) change.
  uint64_t shuffle_budget_bytes = 0;

  /// Spill-file factory for budgeted rounds; null = the process default
  /// (real temp files). Tests inject fault backends here.
  SpillBackend* spill_backend = nullptr;

  /// Where workers run: in-process threads (default) or forked worker
  /// processes shuffling over real sockets, both through the same bucket
  /// store.
  BackendMode backend = BackendMode::kThread;

  /// Worker-process count for BackendMode::kProcess; 0 = num_threads.
  unsigned process_workers = 0;

  /// Default per-worker progress deadline (see worker_deadline_ms).
  static constexpr uint32_t kDefaultWorkerDeadlineMs = 120'000;

  /// Retry budget for failed process-backend workers (ignored by the
  /// thread backend, whose workers share this process's fate).
  RetryPolicy retry = {};

  /// Liveness deadline for the process backend's links, in milliseconds:
  /// a worker whose link makes no progress (no bytes in, no send-buffer
  /// room out) for this long is SIGKILLed, reaped, and treated as a
  /// failed attempt — a hung child can wedge a round for at most this
  /// long, never forever. This is a *progress* deadline, not a total
  /// runtime cap: any transferred byte resets it. 0 = no deadline
  /// (blocking reads, the pre-fault-tolerance behavior).
  uint32_t worker_deadline_ms = kDefaultWorkerDeadlineMs;

  /// What to do when a worker slot exhausts its retry budget.
  OnExhausted on_exhausted = OnExhausted::kFail;

  /// Deterministic fault-injection hook for the process backend; null =
  /// none (then $SMR_FAULT_PLAN is consulted — see
  /// mapreduce/fault_injection.h). Tests inject kill/stall/corrupt/
  /// spawn/spill faults here.
  FaultInjector* fault_injector = nullptr;

  /// Map-side combining: when a RoundSpec declares an associative
  /// combiner, apply it (per-worker pre-aggregation plus the reduce-side
  /// fold — see engine.h). Turning this off ships every raw emission, for
  /// A/B measurement of the combiner's shuffle-volume savings; semantic
  /// results are identical either way.
  bool combine = true;

  /// The persistent worker pool every parallel phase dispatches through
  /// (mutable: created lazily by EnsurePool() on the first parallel
  /// dispatch, so serial policies never allocate one). Once created it is
  /// shared by all copies of this policy — JobDriver holds the policy by
  /// value, so all rounds and phases of a job wake the same parked threads
  /// instead of spawning fresh ones. Copies taken *before* the first
  /// dispatch each lazily create their own pool, which is the correct
  /// isolation for policies handed to independent jobs.
  mutable std::shared_ptr<ThreadPool> pool = nullptr;

  static ExecutionPolicy Serial() { return ExecutionPolicy{1}; }

  static ExecutionPolicy WithThreads(unsigned n) {
    return ExecutionPolicy{std::max(1u, n)};
  }

  /// One thread per hardware context.
  static ExecutionPolicy MaxParallel() {
    const unsigned hw = std::thread::hardware_concurrency();
    return ExecutionPolicy{hw == 0 ? 1u : hw};
  }

  /// Copy of this policy with a different partition count (builder style,
  /// so call sites stay one expression).
  ExecutionPolicy WithPartitions(unsigned partitions) const {
    ExecutionPolicy policy = *this;
    policy.shuffle_partitions = partitions;
    return policy;
  }

  ExecutionPolicy WithCombine(bool on) const {
    ExecutionPolicy policy = *this;
    policy.combine = on;
    return policy;
  }

  ExecutionPolicy WithBudget(uint64_t bytes) const {
    ExecutionPolicy policy = *this;
    policy.shuffle_budget_bytes = bytes;
    return policy;
  }

  ExecutionPolicy WithSpillBackend(SpillBackend* spill) const {
    ExecutionPolicy policy = *this;
    policy.spill_backend = spill;
    return policy;
  }

  ExecutionPolicy WithBackend(BackendMode mode, unsigned workers = 0) const {
    ExecutionPolicy policy = *this;
    policy.backend = mode;
    policy.process_workers = workers;
    return policy;
  }

  ExecutionPolicy WithRetry(RetryPolicy retry_policy) const {
    ExecutionPolicy policy = *this;
    policy.retry = retry_policy;
    if (policy.retry.max_attempts == 0) policy.retry.max_attempts = 1;
    return policy;
  }

  ExecutionPolicy WithDeadline(uint32_t deadline_ms) const {
    ExecutionPolicy policy = *this;
    policy.worker_deadline_ms = deadline_ms;
    return policy;
  }

  ExecutionPolicy WithOnExhausted(OnExhausted mode) const {
    ExecutionPolicy policy = *this;
    policy.on_exhausted = mode;
    return policy;
  }

  ExecutionPolicy WithFaultInjector(FaultInjector* injector) const {
    ExecutionPolicy policy = *this;
    policy.fault_injector = injector;
    return policy;
  }

  /// The policy's pool, created on first use. Not synchronized: dispatches
  /// happen from the single thread driving the round (the engine's
  /// existing contract); concurrent jobs must use distinct policy objects.
  ThreadPool& EnsurePool() const {
    if (!pool) pool = std::make_shared<ThreadPool>();
    return *pool;
  }

  /// Threads actually worth spawning for `work_items` units of work.
  unsigned EffectiveThreads(size_t work_items) const {
    const size_t cap = std::max<size_t>(1, work_items);
    return static_cast<unsigned>(
        std::min<size_t>(std::max(1u, num_threads), cap));
  }

  /// Worker processes actually worth forking for `work_items` units of
  /// work under BackendMode::kProcess.
  unsigned EffectiveProcessWorkers(size_t work_items) const {
    const size_t cap = std::max<size_t>(1, work_items);
    const unsigned configured =
        process_workers > 0 ? process_workers : std::max(1u, num_threads);
    return static_cast<unsigned>(std::min<size_t>(configured, cap));
  }

  /// Partition count the shuffle will actually use. The process backend
  /// hands each reduce worker a contiguous group of partitions, so it
  /// never runs fewer partitions than configured worker processes.
  unsigned EffectivePartitions() const {
    // 4x oversubscription gives the dynamic queue slack to balance skewed
    // key ranges; the cap bounds per-worker scatter-buffer overhead.
    const unsigned partitions =
        shuffle_partitions > 0 ? shuffle_partitions
                               : std::min(std::max(1u, num_threads) * 4, 256u);
    return backend == BackendMode::kProcess
               ? std::max(partitions, EffectiveProcessWorkers(SIZE_MAX))
               : partitions;
  }

  /// worker_deadline_ms as the millisecond timeout poll() takes: -1 (wait
  /// forever) for 0, clamped to INT_MAX above it — a wider deadline must
  /// not wrap negative and silently mean "no deadline".
  int DeadlineTimeoutMs() const {
    if (worker_deadline_ms == 0) return -1;
    return static_cast<int>(std::min<uint32_t>(
        worker_deadline_ms, static_cast<uint32_t>(INT_MAX)));
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_EXECUTION_POLICY_H_
