#include <gtest/gtest.h>

#include <iterator>

#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {
namespace {

/// Runs one serial round through the declarative API (the only way rounds
/// run since the RoundSpec/JobDriver refactor).
template <typename Input, typename Value, typename Map, typename Reduce>
MapReduceMetrics RunOneRound(const std::vector<Input>& inputs, Map map_fn,
                             Reduce reduce_fn, InstanceSink* sink,
                             uint64_t key_space) {
  JobDriver driver;
  return driver.RunRound(RoundSpec<Input, Value>{"test", map_fn, reduce_fn,
                                                 key_space, {}},
                         inputs, sink);
}

TEST(Engine, MapShuffleReduceSemantics) {
  // Inputs 1..6; map emits (value % 3, value); reduce sums each group.
  const std::vector<int> inputs = {1, 2, 3, 4, 5, 6};
  std::vector<std::pair<uint64_t, int>> reduced;
  auto map_fn = [](const int& x, Emitter<int>* out) {
    out->Emit(static_cast<uint64_t>(x % 3), x);
  };
  auto reduce_fn = [&](uint64_t key, std::span<const int> values,
                       ReduceContext*) {
    int sum = 0;
    for (int v : values) sum += v;
    reduced.emplace_back(key, sum);
  };
  const MapReduceMetrics metrics = RunOneRound<int, int>(
      inputs, map_fn, reduce_fn, nullptr, /*key_space=*/3);
  EXPECT_EQ(metrics.input_records, 6u);
  EXPECT_EQ(metrics.key_value_pairs, 6u);
  EXPECT_EQ(metrics.distinct_keys, 3u);
  EXPECT_EQ(metrics.key_space, 3u);
  EXPECT_EQ(metrics.max_reducer_input, 2u);
  ASSERT_EQ(reduced.size(), 3u);
  // Reducers run in ascending key order.
  EXPECT_EQ(reduced[0], std::make_pair(uint64_t{0}, 9));   // 3 + 6
  EXPECT_EQ(reduced[1], std::make_pair(uint64_t{1}, 5));   // 1 + 4
  EXPECT_EQ(reduced[2], std::make_pair(uint64_t{2}, 7));   // 2 + 5
}

TEST(Engine, ValuesArriveInEmissionOrder) {
  const std::vector<int> inputs = {5, 3, 9, 1};
  std::vector<int> seen;
  auto map_fn = [](const int& x, Emitter<int>* out) { out->Emit(0, x); };
  auto reduce_fn = [&](uint64_t, std::span<const int> values, ReduceContext*) {
    seen.assign(values.begin(), values.end());
  };
  RunOneRound<int, int>(inputs, map_fn, reduce_fn, nullptr, 1);
  EXPECT_EQ(seen, inputs);
}

TEST(Engine, ReplicationCountsEveryEmission) {
  const std::vector<int> inputs = {1, 2};
  auto map_fn = [](const int&, Emitter<int>* out) {
    for (uint64_t k = 0; k < 5; ++k) out->Emit(k, 0);
  };
  auto reduce_fn = [](uint64_t, std::span<const int>, ReduceContext*) {};
  const MapReduceMetrics metrics =
      RunOneRound<int, int>(inputs, map_fn, reduce_fn, nullptr, 5);
  EXPECT_EQ(metrics.key_value_pairs, 10u);
  EXPECT_DOUBLE_EQ(metrics.ReplicationRate(), 5.0);
}

TEST(Engine, ReducerOutputsAndCostAggregate) {
  const std::vector<int> inputs = {1, 2, 3};
  auto map_fn = [](const int& x, Emitter<int>* out) {
    out->Emit(static_cast<uint64_t>(x), x);
  };
  CollectingSink sink;
  auto reduce_fn = [](uint64_t, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->candidates += values.size();
    const std::vector<NodeId> assignment = {7, 8};
    context->EmitInstance(assignment);
  };
  const MapReduceMetrics metrics =
      RunOneRound<int, int>(inputs, map_fn, reduce_fn, &sink, 100);
  EXPECT_EQ(metrics.outputs, 3u);
  EXPECT_EQ(metrics.reduce_cost.candidates, 3u);
  EXPECT_EQ(metrics.reduce_cost.outputs, 3u);
  EXPECT_EQ(sink.assignments().size(), 3u);
}

TEST(Engine, EmptyInput) {
  const std::vector<int> inputs;
  auto map_fn = [](const int&, Emitter<int>* out) { out->Emit(0, 0); };
  auto reduce_fn = [](uint64_t, std::span<const int>, ReduceContext*) {};
  const MapReduceMetrics metrics =
      RunOneRound<int, int>(inputs, map_fn, reduce_fn, nullptr, 1);
  EXPECT_EQ(metrics.key_value_pairs, 0u);
  EXPECT_EQ(metrics.distinct_keys, 0u);
  EXPECT_DOUBLE_EQ(metrics.ReplicationRate(), 0.0);
}

TEST(InstanceKey, CanonicalizesEdgeImages) {
  const std::vector<std::pair<int, int>> pattern_edges = {{0, 1}, {1, 2}};
  const std::vector<NodeId> a1 = {5, 2, 9};
  const std::vector<NodeId> a2 = {9, 2, 5};  // path reversed
  EXPECT_EQ(MakeInstanceKey(pattern_edges, a1),
            MakeInstanceKey(pattern_edges, a2));
}

TEST(CollectingSink, KeysAreSortedMultiset) {
  const std::vector<std::pair<int, int>> pattern_edges = {{0, 1}};
  CollectingSink sink;
  sink.Emit(std::vector<NodeId>{3, 4});
  sink.Emit(std::vector<NodeId>{1, 2});
  sink.Emit(std::vector<NodeId>{4, 3});
  const auto keys = sink.Keys(pattern_edges);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], (InstanceKey{{1, 2}}));
  EXPECT_EQ(keys[1], (InstanceKey{{3, 4}}));
  EXPECT_EQ(keys[2], (InstanceKey{{3, 4}}));  // duplicate preserved
}

// The pinned classification table: every ShuffleStats field by name, with
// the class this revision commits it to. The registry-driven test below
// checks the live registry against this table in both directions, so
// adding a field without deciding its class here fails the test, and the
// mirror struct at the bottom of this file makes adding a field to the
// struct without adding it to the registry a compile error.
struct FieldClassPin {
  const char* name;
  MetricsFieldClass field_class;
};
constexpr FieldClassPin kShuffleStatsClassPins[] = {
    {"partitions", MetricsFieldClass::kDiagnostic},
    {"max_partition_pairs", MetricsFieldClass::kDiagnostic},
    {"pairs_shipped", MetricsFieldClass::kDiagnostic},
    {"shuffle_bytes", MetricsFieldClass::kDiagnostic},
    {"counting_partitions", MetricsFieldClass::kDiagnostic},
    {"sorted_partitions", MetricsFieldClass::kDiagnostic},
    {"pages_spilled", MetricsFieldClass::kDiagnostic},
    {"bytes_spilled", MetricsFieldClass::kDiagnostic},
    {"spill_files", MetricsFieldClass::kDiagnostic},
    {"process_workers", MetricsFieldClass::kDiagnostic},
    {"map_bytes_on_wire", MetricsFieldClass::kDiagnostic},
    {"reduce_bytes_on_wire", MetricsFieldClass::kDiagnostic},
    {"link_bytes_on_wire", MetricsFieldClass::kDiagnostic},
    {"worker_retries", MetricsFieldClass::kDiagnostic},
    {"frames_discarded", MetricsFieldClass::kDiagnostic},
    {"deadline_kills", MetricsFieldClass::kDiagnostic},
    {"thread_fallbacks", MetricsFieldClass::kDiagnostic},
    {"pool_threads_spawned", MetricsFieldClass::kDiagnostic},
    {"pool_tasks_reused", MetricsFieldClass::kDiagnostic},
};

// Perturbs one registered field: bumps integers, totals, and vectors in a
// way that is guaranteed to change the value.
struct PerturbField {
  uint64_t salt;
  void operator()(uint64_t& value) const { value += salt; }
  void operator()(CostCounter& value) const { value.candidates += salt; }
  void operator()(std::vector<uint64_t>& value) const {
    value.push_back(salt);
  }
};

// Registry-driven regression pin for the determinism contract's fine
// print: ShuffleStats is host-side observability (it legitimately varies
// with thread counts, partition counts, budgets, and backends), so mutating
// EVERY registered field — iterated via ForEachField, no field named by
// hand — must leave MapReduceMetrics, and therefore JobMetrics, equal.
// Each field's registered class must also match the pinned table above,
// so promoting a field to SEMANTIC (or registering a new one) forces a
// deliberate edit to the pin.
TEST(Metrics, EveryShuffleStatsFieldIsExcludedFromSemanticEquality) {
  MapReduceMetrics base;
  base.input_records = 10;
  base.key_value_pairs = 30;
  base.distinct_keys = 5;
  base.outputs = 4;

  // Pin table and registry must agree in both directions.
  ASSERT_EQ(std::size(kShuffleStatsClassPins), ShuffleStats::kFieldCount);
  EXPECT_EQ(ShuffleStats::kSemanticFieldCount, 0u);
  size_t index = 0;
  base.shuffle.ForEachField([&](const char* name, const auto&,
                                MetricsFieldClass field_class) {
    ASSERT_LT(index, std::size(kShuffleStatsClassPins));
    EXPECT_STREQ(name, kShuffleStatsClassPins[index].name);
    EXPECT_EQ(field_class, kShuffleStatsClassPins[index].field_class)
        << "field '" << name << "' changed classification — if that is "
        << "intentional, update kShuffleStatsClassPins and the goldens "
        << "this class change implies";
    ++index;
  });
  EXPECT_EQ(index, ShuffleStats::kFieldCount);

  // Mutate every registered field without naming any; diagnostic fields
  // must not affect equality.
  MapReduceMetrics noisy = base;
  uint64_t salt = 7;
  noisy.shuffle.ForEachField([&](const char*, auto& value,
                                 MetricsFieldClass field_class) {
    if (field_class == MetricsFieldClass::kDiagnostic) {
      PerturbField{salt}(value);
      salt += 2;
    }
  });
  EXPECT_TRUE(noisy == base);
  EXPECT_TRUE(base == noisy);

  // The exclusion lifts through the job-level equality too.
  JobMetrics job_a;
  job_a.rounds.push_back({"round", base});
  JobMetrics job_b;
  job_b.rounds.push_back({"round", noisy});
  EXPECT_TRUE(job_a == job_b);

  // ... but semantic fields still compare: same stats, different costs.
  MapReduceMetrics different = noisy;
  different.outputs = 5;
  EXPECT_FALSE(different == base);
  JobMetrics job_c;
  job_c.rounds.push_back({"round", different});
  EXPECT_FALSE(job_a == job_c);
  JobMetrics renamed;
  renamed.rounds.push_back({"other", base});
  EXPECT_FALSE(job_a == renamed);
}

TEST(Metrics, ToStringMentionsFields) {
  MapReduceMetrics metrics;
  metrics.input_records = 10;
  metrics.key_value_pairs = 30;
  const std::string text = metrics.ToString();
  EXPECT_NE(text.find("kv_pairs=30"), std::string::npos);
  EXPECT_NE(text.find("replication=3"), std::string::npos);
  // Diagnostic fields are zero-suppressed: they print (under their
  // registered field names) only when something actually happened.
  EXPECT_EQ(text.find("worker_retries="), std::string::npos);
  EXPECT_EQ(text.find("deadline_kills="), std::string::npos);
  metrics.shuffle.worker_retries = 2;
  metrics.shuffle.deadline_kills = 1;
  const std::string faulty = metrics.ToString();
  EXPECT_NE(faulty.find("worker_retries=2"), std::string::npos);
  EXPECT_NE(faulty.find("deadline_kills=1"), std::string::npos);
}

// Negative-compile guard for the field registry. This mirror expands the
// same SMR_SHUFFLE_STATS_FIELDS list into a bare struct; if a field is
// ever added to ShuffleStats directly (bypassing the registry, and with it
// the classification decision, operator==, the printer, and the test
// above), the sizes diverge and this static_assert reports it at compile
// time. The error message one would see, demonstrated by appending
// `uint64_t rogue_field = 0;` to the ShuffleStats body:
//   error: static assertion failed: ShuffleStats has a field that is not
//   in SMR_SHUFFLE_STATS_FIELDS
struct ShuffleStatsMirror {
  SMR_SHUFFLE_STATS_FIELDS(SMR_METRICS_DECLARE_FIELD,
                           SMR_METRICS_DECLARE_FIELD)
};
static_assert(sizeof(ShuffleStatsMirror) == sizeof(ShuffleStats),
              "ShuffleStats has a field that is not in "
              "SMR_SHUFFLE_STATS_FIELDS");

}  // namespace
}  // namespace smr
