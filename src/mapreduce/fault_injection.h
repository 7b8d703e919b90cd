#ifndef SMR_MAPREDUCE_FAULT_INJECTION_H_
#define SMR_MAPREDUCE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/spill.h"
#include "util/enum_registry.h"

namespace smr {

/// Deterministic fault-injection harness for the process backend
/// (mapreduce/process_backend.h) — the generalization of PR 6's
/// SpillBackend faults to every failure mode a forked worker round has:
/// a child killed after N frames, a link that stalls, a corrupted frame,
/// a failed fork, a failed spill append. A FaultPlan is a list of
/// (role, kind, worker, after, times) specs; the coordinator consults the
/// installed FaultInjector at every worker (re)spawn, so a plan's effect
/// is a pure function of the plan — each injected scenario is exactly
/// reproducible, which is what lets tests assert byte-identical recovery.
///
/// Installation: ExecutionPolicy::fault_injector (test hook), or the
/// SMR_FAULT_PLAN environment variable for CI smoke runs (see
/// ParseFaultPlan for the grammar). What stays single-threaded is the
/// spawns: ArmSpawn runs only on the coordinator thread, between passes,
/// while no link is being drained, and is not thread-safe. Links drain
/// concurrently, so spill failures arm per draining thread and the fire
/// counters are atomic.

/// Which side of the round a fault targets. Registered names are the
/// SMR_FAULT_PLAN grammar tokens (see util/enum_registry.h).
#define SMR_WORKER_ROLES(X)                                                \
  X(kMap, 0, "map")                                                        \
  X(kReduce, 1, "reduce")

enum class WorkerRole { SMR_WORKER_ROLES(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(WorkerRole, SMR_WORKER_ROLES);

inline const char* WorkerRoleName(WorkerRole role) {
  return EnumTraits<WorkerRole>::Name(role);
}

/// What the armed fault does. Registered names are the SMR_FAULT_PLAN
/// grammar tokens; ParseFaultPlan and FaultKindName both read the
/// registry, so a new fault kind round-trips with zero parser edits.
#define SMR_FAULT_KINDS(X)                                                 \
  /* The child raises SIGKILL after delivering `after_frames` frames (and  \
     before its end-of-stream frame) — the classic mid-stream crash. */    \
  X(kKillAfterFrames, 0, "kill")                                           \
  /* The child stops sending after `after_frames` frames and sleeps        \
     forever — only a liveness deadline can unwedge the coordinator. */    \
  X(kStallLink, 1, "stall")                                                \
  /* The child overwrites the kind byte of output frame `after_frames`     \
     with an invalid value and keeps going — the coordinator must reject   \
     the stream loudly, never decode around it. */                         \
  X(kCorruptFrame, 2, "corrupt")                                           \
  /* The coordinator's fork of this worker fails (as if EAGAIN). */        \
  X(kFailSpawn, 3, "spawnfail")                                            \
  /* Spill-store appends fail while this map worker's link is drained      \
     (requires a shuffle budget small enough to actually spill). */        \
  X(kFailSpillAppend, 4, "spillfail")

enum class FaultKind { SMR_FAULT_KINDS(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(FaultKind, SMR_FAULT_KINDS);

const char* FaultKindName(FaultKind kind);

struct FaultSpec {
  WorkerRole role = WorkerRole::kMap;
  FaultKind kind = FaultKind::kKillAfterFrames;
  /// Worker index within the role's crew.
  unsigned worker = 0;
  /// Output frames the child delivers before the fault fires (kill/stall/
  /// corrupt). When the plan text omits `after=`, a deterministic value in
  /// [0, 8) is derived from the plan seed and the spec's position.
  uint64_t after_frames = 0;
  /// How many (re)spawns of this worker the fault hits before burning out.
  /// 1 (the default) fails the first attempt and lets the retry succeed;
  /// >= the policy's max_attempts exhausts the retry budget.
  unsigned times = 1;
};

struct FaultPlan {
  std::vector<FaultSpec> faults;
  uint64_t seed = 1;
};

/// Parses the SMR_FAULT_PLAN grammar; throws std::invalid_argument (with a
/// message starting "fault plan:") on anything malformed.
///
///   plan  := item (';' item)*
///   item  := spec | "seed=" N
///   spec  := role ':' kind ':' worker (':' opt)*
///   role  := "map" | "reduce"
///   kind  := "kill" | "stall" | "corrupt" | "spawnfail" | "spillfail"
///   opt   := "after=" N | "times=" N
///
/// Examples: "map:kill:0", "reduce:stall:1:after=3",
/// "map:corrupt:2:after=5:times=2;seed=7". spillfail targets the
/// coordinator's drain of a map link, so its role must be map.
FaultPlan ParseFaultPlan(std::string_view text);

/// What one (re)spawned worker is armed with: the child-side kinds carry
/// it into the fork; the coordinator-side kinds act on it directly.
struct ArmedFault {
  FaultKind kind = FaultKind::kKillAfterFrames;
  uint64_t after_frames = 0;
};

/// Executes a FaultPlan deterministically against the process backend's
/// spawn/drain lifecycle. All bookkeeping lives in the coordinator: a spec
/// fires on a matching worker's spawn while its `times` budget lasts, so
/// the sequence of injected faults is identical on every run of the same
/// plan against the same job.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Called by the coordinator for every worker (re)spawn; returns the
  /// fault this attempt is armed with (consuming one of the matching
  /// spec's `times`), or nullopt for a clean attempt.
  std::optional<ArmedFault> ArmSpawn(WorkerRole role, unsigned worker);

  /// Wraps `inner` (null = the process default) so that spill appends
  /// throw while a spill failure is armed. The wrapper is owned by the
  /// injector and stays valid for its lifetime.
  SpillBackend* WrapSpillBackend(SpillBackend* inner);

  /// Arms/disarms spill-append failures on the calling thread only, around
  /// one link's drain (the coordinator thread draining a worker whose
  /// ArmSpawn returned kFailSpillAppend holds this), so a concurrent drain
  /// of another link appends cleanly.
  void ArmSpillFailure();
  void DisarmSpillFailure();
  bool spill_failure_armed() const;

  /// Total faults armed/fired so far, overall and per kind — the counters
  /// tests check retry metrics against.
  uint64_t fires() const { return fires_; }
  uint64_t fires(FaultKind kind) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  class FaultySpillBackend;

  FaultPlan plan_;
  std::vector<unsigned> remaining_;  // per-spec `times` budget left
  std::unique_ptr<FaultySpillBackend> spill_wrapper_;
  std::atomic<uint64_t> fires_{0};
  std::atomic<uint64_t> kind_fires_[EnumTraits<FaultKind>::kCount] = {};
};

/// RAII arm/disarm of spill-append failures around one drain; no-op when
/// `arm` is false or `injector` is null.
class ScopedSpillFailure {
 public:
  ScopedSpillFailure(FaultInjector* injector, bool arm)
      : injector_(arm ? injector : nullptr) {
    if (injector_ != nullptr) injector_->ArmSpillFailure();
  }
  ~ScopedSpillFailure() {
    if (injector_ != nullptr) injector_->DisarmSpillFailure();
  }
  ScopedSpillFailure(const ScopedSpillFailure&) = delete;
  ScopedSpillFailure& operator=(const ScopedSpillFailure&) = delete;

 private:
  FaultInjector* injector_;
};

/// The process-wide injector parsed from $SMR_FAULT_PLAN; null when the
/// variable is unset or empty. Re-parsed when the variable's value changes
/// (so tests can swap plans), cached otherwise (so one plan's `times`
/// bookkeeping spans all rounds of a job). A malformed plan throws — CI
/// must never silently run fault-free. Not thread-safe; called only from
/// the coordinator thread.
FaultInjector* EnvFaultInjector();

}  // namespace smr

#endif  // SMR_MAPREDUCE_FAULT_INJECTION_H_
