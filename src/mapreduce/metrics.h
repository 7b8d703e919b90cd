#ifndef SMR_MAPREDUCE_METRICS_H_
#define SMR_MAPREDUCE_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/cost_model.h"

namespace smr {

/// Whether a metrics field is part of the simulated round's semantics
/// (compared by operator==, pinned by goldens, byte-identical across every
/// thread count, partition count, budget, and backend) or host-side
/// diagnostics (observability of how the shuffle was scheduled — varies
/// freely and is excluded from equality).
enum class MetricsFieldClass { kSemantic, kDiagnostic };

/// Field registry of ShuffleStats — the single source from which the
/// struct's fields, the semantic-equality fold, the printer, and the test
/// exclusion pin are all generated. Every field MUST be declared here as
/// either SEMANTIC(type, name) or DIAGNOSTIC(type, name); a member added
/// to the struct body directly is caught at compile time by the mirror
/// static_assert in tests/mapreduce_test.cc, and an entry that uses any
/// other classifier simply does not expand. All current fields are
/// DIAGNOSTIC: they describe the *simulator's* scheduling (they vary with
/// thread count, partition count, budget, and backend), not properties of the
/// simulated round — which is exactly why they are excluded from
/// MapReduceMetrics equality. A field promoted to SEMANTIC automatically
/// joins the equality fold via SemanticallyEqual below.
#define SMR_SHUFFLE_STATS_FIELDS(SEMANTIC, DIAGNOSTIC)                     \
  /* Key-range partitions of the round's shuffle. */                      \
  DIAGNOSTIC(uint64_t, partitions)                                         \
  /* Key-value pairs in the heaviest partition (shuffle-level skew). */    \
  DIAGNOSTIC(uint64_t, max_partition_pairs)                                \
  /* Key-value pairs the shuffle physically moved after map-side           \
     combining — equal to the round's `key_value_pairs` when no combiner   \
     ran. Each map worker pre-aggregates only its own emissions, so this   \
     depends on the worker count; that host-scheduling dependence is why   \
     it lives here rather than in the semantic metrics. */                 \
  DIAGNOSTIC(uint64_t, pairs_shipped)                                      \
  /* Bytes scattered through the shuffle (keys + values, post-combine). */ \
  DIAGNOSTIC(uint64_t, shuffle_bytes)                                      \
  /* How the local round grouped its non-empty unspilled partitions:      \
     `counting_partitions` took the O(n) per-key counting scatter (dense   \
     key range), `sorted_partitions` the binned scatter plus in-bin sorts  \
     (sparse key range). A partition merged from spilled runs counts in    \
     neither, so a budgeted round reports only the partitions that did    \
     not spill. Both 0 for the process backend and empty rounds. See       \
     mapreduce/group_by_key.h. */                                          \
  DIAGNOSTIC(uint64_t, counting_partitions)                                \
  DIAGNOSTIC(uint64_t, sorted_partitions)                                  \
  /* Out-of-core accounting for budgeted rounds (ExecutionPolicy::         \
     shuffle_budget_bytes > 0; see mapreduce/spill.h): fixed-size KV       \
     pages written to spill files, serialized bytes spilled, and temp      \
     files created. All zero for unbounded rounds and for budgeted rounds  \
     whose resident volume never crossed the budget. */                    \
  DIAGNOSTIC(uint64_t, pages_spilled)                                      \
  DIAGNOSTIC(uint64_t, bytes_spilled)                                      \
  DIAGNOSTIC(uint64_t, spill_files)                                        \
  /* Process-backend accounting (BackendMode::kProcess; see                \
     mapreduce/process_backend.h): worker processes forked for the round,  \
     and bytes that *really* crossed the kernel socket boundary as         \
     codec-framed records — map workers -> coordinator during the shuffle  \
     (`map_bytes_on_wire`) and coordinator <-> reduce workers              \
     (`reduce_bytes_on_wire`). `link_bytes_on_wire[w]` splits the map      \
     volume per worker link. These are the measured counterpart of the     \
     paper's `key_value_pairs x record_size` communication cost            \
     (bench/bench_backend_comm.cc plots one against the other); all zero   \
     under the thread backend, where no pair is ever serialized. */        \
  DIAGNOSTIC(uint64_t, process_workers)                                    \
  DIAGNOSTIC(uint64_t, map_bytes_on_wire)                                  \
  DIAGNOSTIC(uint64_t, reduce_bytes_on_wire)                               \
  DIAGNOSTIC(std::vector<uint64_t>, link_bytes_on_wire)                    \
  /* Fault-tolerance accounting for the process backend (see               \
     mapreduce/process_backend.h): worker attempts that failed and were    \
     re-forked (`worker_retries`), frames decoded from a failed attempt    \
     and discarded before the deterministic re-execution                   \
     (`frames_discarded`), workers SIGKILLed for missing the policy's      \
     progress deadline (`deadline_kills`), and rounds re-run on the        \
     in-memory backend after a worker slot exhausted its retry budget      \
     (`thread_fallbacks`, under OnExhausted::kFallbackThread). All zero    \
     on a fault-free run — a retried round's results are byte-identical    \
     to a fault-free run's. */                                             \
  DIAGNOSTIC(uint64_t, worker_retries)                                     \
  DIAGNOSTIC(uint64_t, frames_discarded)                                   \
  DIAGNOSTIC(uint64_t, deadline_kills)                                     \
  DIAGNOSTIC(uint64_t, thread_fallbacks)                                   \
  /* Persistent-pool accounting for this round's parallel phases: threads  \
     the policy's ThreadPool had to create vs worker tasks served by       \
     already-parked threads. A multi-round job under one JobDriver spawns  \
     only in its first parallel phase and reuses everywhere after, so      \
     summing these over a job's rounds shows spawns << phases x workers.*/ \
  DIAGNOSTIC(uint64_t, pool_threads_spawned)                               \
  DIAGNOSTIC(uint64_t, pool_tasks_reused)

/// Entry adapters shared by the two field registries.
#define SMR_METRICS_DECLARE_FIELD(type, name) type name{};
#define SMR_METRICS_COUNT_FIELD(type, name) +1
#define SMR_METRICS_SKIP_FIELD(type, name)

/// Host-side accounting of how the shuffle actually moved the data —
/// observability counters for the *simulator's* scheduling, generated
/// field-for-field from SMR_SHUFFLE_STATS_FIELDS (see the registry above
/// for per-field documentation).
struct ShuffleStats {
  SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_DECLARE_FIELD,
                           SMR_METRICS_DECLARE_FIELD)

  static constexpr std::size_t kFieldCount =
      0 SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_COUNT_FIELD,
                                 SMR_METRICS_COUNT_FIELD);
  static constexpr std::size_t kSemanticFieldCount =
      0 SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_COUNT_FIELD,
                                 SMR_METRICS_SKIP_FIELD);

  /// Calls `fn(name, field, MetricsFieldClass)` for every registered field
  /// in registry order — the hook the generated printer and the
  /// classification regression test iterate. The mutable overload is what
  /// lets the test perturb every field without naming any.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define SMR_METRICS_VISIT_SEMANTIC(type, name) \
  fn(#name, name, MetricsFieldClass::kSemantic);
#define SMR_METRICS_VISIT_DIAGNOSTIC(type, name) \
  fn(#name, name, MetricsFieldClass::kDiagnostic);
    SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_VISIT_SEMANTIC,
                             SMR_METRICS_VISIT_DIAGNOSTIC)
#undef SMR_METRICS_VISIT_SEMANTIC
#undef SMR_METRICS_VISIT_DIAGNOSTIC
  }

  template <typename Fn>
  void ForEachField(Fn&& fn) {
#define SMR_METRICS_VISIT_SEMANTIC(type, name) \
  fn(#name, name, MetricsFieldClass::kSemantic);
#define SMR_METRICS_VISIT_DIAGNOSTIC(type, name) \
  fn(#name, name, MetricsFieldClass::kDiagnostic);
    SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_VISIT_SEMANTIC,
                             SMR_METRICS_VISIT_DIAGNOSTIC)
#undef SMR_METRICS_VISIT_SEMANTIC
#undef SMR_METRICS_VISIT_DIAGNOSTIC
  }

  /// Equality over the SEMANTIC subset of the registry — today vacuously
  /// true (every field is diagnostic), but a field promoted to SEMANTIC
  /// joins this fold, and through it MapReduceMetrics::operator==, with no
  /// further edits.
  bool SemanticallyEqual(const ShuffleStats& other) const {
    (void)other;
    bool equal = true;
#define SMR_METRICS_COMPARE_SEMANTIC(type, name) \
  equal = equal && name == other.name;
    SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_COMPARE_SEMANTIC,
                             SMR_METRICS_SKIP_FIELD)
#undef SMR_METRICS_COMPARE_SEMANTIC
    return equal;
  }

  /// Max partition load over mean partition load; 1.0 is perfectly
  /// balanced. 0 when the round was not partitioned or moved no data.
  double PartitionSkew(uint64_t total_pairs) const {
    if (partitions == 0 || total_pairs == 0) return 0.0;
    const double mean = static_cast<double>(total_pairs) /
                        static_cast<double>(partitions);
    return static_cast<double>(max_partition_pairs) / mean;
  }
};

/// Field registry of MapReduceMetrics — same contract as
/// SMR_SHUFFLE_STATS_FIELDS, plus a print label per field (the §1.2
/// vocabulary the round summary line uses). The SEMANTIC fields are the
/// paper's cost measures of one map-reduce round (Section 1.2):
///  * communication cost = key-value pairs sent from mappers to reducers
///    (`key_value_pairs`; `bytes` scales it by value size);
///  * number of reducers = distinct keys that received data
///    (`distinct_keys`) against the declared reducer space (`key_space`,
///    e.g. b^3 or C(b+p-1, p));
///  * computation cost = instrumented operation count over all reducers
///    (`reduce_cost`) plus the skew indicator `max_reducer_input`.
/// The one DIAGNOSTIC field is the nested ShuffleStats aggregate, excluded
/// from equality through its own (currently empty) semantic subset. A
/// DIAGNOSTIC field here must be an aggregate with its own registry and
/// SemanticallyEqual — a bare diagnostic counter belongs in ShuffleStats,
/// and the generated operator== will not compile otherwise.
#define SMR_MAP_REDUCE_METRICS_FIELDS(SEMANTIC, DIAGNOSTIC)                \
  SEMANTIC(uint64_t, input_records, "inputs")                              \
  SEMANTIC(uint64_t, key_value_pairs, "kv_pairs")                          \
  SEMANTIC(uint64_t, bytes, "bytes")                                       \
  SEMANTIC(uint64_t, distinct_keys, "reducers_used")                       \
  SEMANTIC(uint64_t, key_space, "key_space")                               \
  SEMANTIC(uint64_t, max_reducer_input, "max_reducer_input")               \
  SEMANTIC(uint64_t, outputs, "outputs")                                   \
  SEMANTIC(CostCounter, reduce_cost, "reduce_ops")                         \
  DIAGNOSTIC(ShuffleStats, shuffle, "shuffle")

#define SMR_METRICS_DECLARE_LABELED_FIELD(type, name, label) type name{};

struct MapReduceMetrics {
  SMR_MAP_REDUCE_METRICS_FIELDS(SMR_METRICS_DECLARE_LABELED_FIELD,
                                SMR_METRICS_DECLARE_LABELED_FIELD)

  /// Communication cost per input record (the paper reports replication
  /// rates such as "b per edge", Section 2.3).
  double ReplicationRate() const {
    return input_records == 0
               ? 0.0
               : static_cast<double>(key_value_pairs) /
                     static_cast<double>(input_records);
  }

  /// Average reducer input size (key-value pairs per reducer that received
  /// data).
  double MeanReducerInput() const {
    return distinct_keys == 0
               ? 0.0
               : static_cast<double>(key_value_pairs) /
                     static_cast<double>(distinct_keys);
  }

  /// Skew indicator: max reducer load over mean reducer load (>= 1 when any
  /// reducer received data). Balanced hashing keeps this near 1; the paper's
  /// computation-cost analysis (Section 1.2) assumes the max reducer is not
  /// far from the mean.
  double SkewRatio() const {
    const double mean = MeanReducerInput();
    return mean == 0.0 ? 0.0
                       : static_cast<double>(max_reducer_input) / mean;
  }

  /// Folds the reduce-phase counters of one parallel worker shard into this
  /// metrics object. Shards cover disjoint key ranges, so the per-reducer
  /// quantities combine by sum (distinct_keys, outputs, reduce_cost) and max
  /// (max_reducer_input); map-phase counters are left untouched because the
  /// engine computes them globally before sharding.
  void MergeReduceShard(const MapReduceMetrics& shard) {
    distinct_keys += shard.distinct_keys;
    max_reducer_input = std::max(max_reducer_input, shard.max_reducer_input);
    outputs += shard.outputs;
    reduce_cost += shard.reduce_cost;
  }

  /// Folds one partition of the partitioned shuffle into this metrics
  /// object: the reduce counters combine exactly as MergeReduceShard
  /// (partitions cover disjoint ascending key ranges, and a key never
  /// straddles a partition), and the partition's pair count feeds the
  /// shuffle-skew accounting.
  void MergePartitionShard(const MapReduceMetrics& shard,
                           uint64_t partition_pairs) {
    MergeReduceShard(shard);
    shuffle.max_partition_pairs =
        std::max(shuffle.max_partition_pairs, partition_pairs);
  }

  /// Equality over the quantities of the simulated round (the paper's cost
  /// measures) — generated from the field registry: SEMANTIC fields compare
  /// directly, the DIAGNOSTIC ShuffleStats aggregate through its own
  /// semantic subset (deliberately empty today). The engine's determinism
  /// guarantee is that this holds for every thread count, partition count,
  /// budget, and backend.
  bool operator==(const MapReduceMetrics& other) const {
#define SMR_METRICS_COMPARE_SEMANTIC(type, name, label) name == other.name &&
#define SMR_METRICS_COMPARE_DIAGNOSTIC(type, name, label) \
  name.SemanticallyEqual(other.name) &&
    return SMR_MAP_REDUCE_METRICS_FIELDS(SMR_METRICS_COMPARE_SEMANTIC,
                                         SMR_METRICS_COMPARE_DIAGNOSTIC) true;
#undef SMR_METRICS_COMPARE_SEMANTIC
#undef SMR_METRICS_COMPARE_DIAGNOSTIC
  }

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const MapReduceMetrics& m);

}  // namespace smr

#endif  // SMR_MAPREDUCE_METRICS_H_
