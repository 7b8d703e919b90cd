// Differential and crash tests for the process backend
// (mapreduce/process_backend.h): forked map/reduce workers over
// codec-framed socketpairs must produce byte-identical instances, order,
// and semantic metrics to the local round for every worker count,
// partition count, and spill budget — and a worker that dies or throws must
// surface as a runtime_error naming the worker, never as a hang.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/engine.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "mapreduce/worker_error.h"

namespace smr {
namespace {

Graph TestGraph() { return ErdosRenyi(60, 240, 7); }

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Full-strategy differential: process backend vs the serial reference
// ---------------------------------------------------------------------------

struct StrategyRun {
  uint64_t instances = 0;
  std::vector<std::vector<NodeId>> assignments;
  MapReduceMetrics metrics;
  JobMetrics job;
};

StrategyRun RunStrategy(const SampleGraph& pattern, const Graph& graph,
                        const std::string& strategy,
                        const ExecutionPolicy& policy) {
  CollectingSink sink;
  EnumerationQuery query = EnumerationQuery::Undirected(pattern, graph);
  query.WithStrategy(strategy).WithPolicy(policy).WithSink(&sink);
  const EnumerationResult result = StrategyRegistry::Global().Run(query);
  return StrategyRun{result.instances, sink.assignments(), result.metrics,
                     result.job};
}

// The acceptance grid from the issue: worker counts {1,2,4} x shuffle
// modes x a spill budget, on a triangle and a square pattern, including a
// multi-round strategy (tworound) so the intermediate-record channel
// crosses the process boundary too. Every cell must match the serial
// reference byte for byte: instance count, assignments in order, the
// headline round's semantic metrics, and the whole JobMetrics chain.
TEST(ProcessBackend, MatchesThreadBackendAcrossWorkersModesAndBudgets) {
  const Graph graph = TestGraph();
  const SampleGraph triangle = SampleGraph::Triangle();
  const SampleGraph square = SampleGraph::Square();
  const struct {
    const SampleGraph* pattern;
    const char* strategy;
  } kCases[] = {
      {&triangle, "bucket:6"},
      {&triangle, "tworound"},
      {&square, "bucket:5"},
  };

  for (const auto& test_case : kCases) {
    const StrategyRun expected =
        RunStrategy(*test_case.pattern, graph, test_case.strategy,
                    ExecutionPolicy::Serial());
    ASSERT_GT(expected.instances, 0u) << test_case.strategy;

    for (const unsigned workers : {1u, 2u, 4u}) {
      for (const unsigned partitions : {1u, 0u /* auto */}) {
        for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
          const ExecutionPolicy policy =
              ExecutionPolicy::Serial()
                  .WithPartitions(partitions)
                  .WithBudget(budget)
                  .WithBackend(BackendMode::kProcess, workers);
          const StrategyRun got =
              RunStrategy(*test_case.pattern, graph, test_case.strategy,
                          policy);
          const std::string label =
              std::string(test_case.strategy) + " workers=" +
              std::to_string(workers) + " partitions=" +
              std::to_string(partitions) + " budget=" + std::to_string(budget);
          EXPECT_EQ(got.instances, expected.instances) << label;
          EXPECT_EQ(got.assignments, expected.assignments) << label;
          EXPECT_TRUE(got.metrics == expected.metrics) << label;
          EXPECT_TRUE(got.job == expected.job) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round-level differentials over a synthetic counting round
// ---------------------------------------------------------------------------

using CountSpec = RoundSpec<uint32_t, uint64_t>;

CountSpec CountRound(uint64_t keys, bool with_combiner) {
  CountSpec spec;
  spec.name = "count";
  spec.key_space = keys;
  spec.mapper = [keys](const uint32_t& input, Emitter<uint64_t>* emitter) {
    emitter->Emit(input % keys, 1);
  };
  spec.reducer = [](uint64_t key, std::span<const uint64_t> values,
                    ReduceContext* context) {
    uint64_t total = 0;
    for (const uint64_t value : values) total += value;
    const NodeId out[2] = {static_cast<NodeId>(key),
                           static_cast<NodeId>(total)};
    context->EmitInstance(out);
  };
  if (with_combiner) {
    spec.combiner = [](uint64_t& acc, const uint64_t& incoming) {
      acc += incoming;
    };
  }
  return spec;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0u);
  return inputs;
}

TEST(ProcessBackend, RoundLevelMetricsAndEmissionsMatchThreadBackend) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  for (const unsigned workers : {1u, 2u, 3u, 4u}) {
    CollectingSink process_sink;
    const MapReduceMetrics process_metrics = RunRound(
        spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
        ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess,
                                              workers));
    EXPECT_TRUE(process_metrics == thread_metrics) << workers;
    EXPECT_EQ(process_sink.assignments(), thread_sink.assignments())
        << workers;
  }
}

// Per-child combining: the logical pair count (the paper's communication
// cost) must be unchanged, the physically shipped count shrinks to about
// one pair per (worker, key), and the semantic results still match the
// thread backend exactly.
TEST(ProcessBackend, CombinerShrinksShippedPairsButNotSemantics) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/true);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  CollectingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));

  EXPECT_TRUE(process_metrics == thread_metrics);
  EXPECT_EQ(process_sink.assignments(), thread_sink.assignments());
  EXPECT_EQ(process_metrics.key_value_pairs, 1000u);
  // 4 workers x 50 keys: every worker's slice covers every key.
  EXPECT_EQ(process_metrics.shuffle.pairs_shipped, 200u);
}

TEST(ProcessBackend, CountsOnlySinkMatchesThreadBackend) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CountingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  CountingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 3));

  EXPECT_TRUE(process_metrics == thread_metrics);
  EXPECT_EQ(process_sink.count(), thread_sink.count());
  EXPECT_EQ(process_sink.count(), 50u);
}

// Intermediate records (the multi-round channel) must cross the process
// boundary in the same deterministic order the thread backend replays.
TEST(ProcessBackend, RecordChannelCrossesTheProcessBoundaryInOrder) {
  CountSpec spec = CountRound(50, /*with_combiner=*/false);
  spec.reducer = [](uint64_t key, std::span<const uint64_t> values,
                    ReduceContext* context) {
    const NodeId record[2] = {static_cast<NodeId>(key),
                              static_cast<NodeId>(values.size())};
    context->EmitRecord(record);
    if (key % 2 == 0) context->EmitInstance(record);
  };
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink thread_sink;
  RecordBuffer thread_records(2);
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink,
               &thread_records);

  CollectingSink process_sink;
  RecordBuffer process_records(2);
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink,
      &process_records,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));

  EXPECT_TRUE(process_metrics == thread_metrics);
  EXPECT_EQ(process_sink.assignments(), thread_sink.assignments());
  ASSERT_EQ(process_records.size(), thread_records.size());
  EXPECT_TRUE(std::equal(process_records.nodes().begin(),
                         process_records.nodes().end(),
                         thread_records.nodes().begin()));
}

// ---------------------------------------------------------------------------
// Wire accounting: measured bytes vs the paper's modeled bytes
// ---------------------------------------------------------------------------

TEST(ProcessBackend, CountsBytesOnTheWirePerLink) {
  const CountSpec spec = CountRound(64, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(2000);

  CollectingSink sink;
  const MapReduceMetrics metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 3));
  const ShuffleStats& stats = metrics.shuffle;

  // 3 map workers + 3 reduce workers were forked.
  EXPECT_EQ(stats.process_workers, 6u);
  ASSERT_EQ(stats.link_bytes_on_wire.size(), 3u);
  uint64_t link_total = 0;
  for (const uint64_t link : stats.link_bytes_on_wire) {
    EXPECT_GT(link, 0u);
    link_total += link;
  }
  EXPECT_EQ(link_total, stats.map_bytes_on_wire);
  EXPECT_GT(stats.reduce_bytes_on_wire, 0u);

  // The measured map->coordinator volume tracks the paper's
  // key_value_pairs x record_size model: varint framing compresses small
  // keys, length prefixes add a little, so the ratio stays within
  // [0.5, 1.5] of the modeled shuffle bytes.
  EXPECT_GT(stats.shuffle_bytes, 0u);
  EXPECT_GE(stats.map_bytes_on_wire * 2, stats.shuffle_bytes);
  EXPECT_LE(stats.map_bytes_on_wire * 2, stats.shuffle_bytes * 3);
}

TEST(ProcessBackend, ThreadBackendLeavesWireCountersZero) {
  const CountSpec spec = CountRound(64, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(500);
  CollectingSink sink;
  const MapReduceMetrics metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &sink);
  EXPECT_EQ(metrics.shuffle.map_bytes_on_wire, 0u);
  EXPECT_EQ(metrics.shuffle.reduce_bytes_on_wire, 0u);
  EXPECT_TRUE(metrics.shuffle.link_bytes_on_wire.empty());
}

// The coordinator shuffles through the local round's partitioned store, so
// it reports the local round's partition stats at the same partition count.
TEST(ProcessBackend, ReportsPartitionStatsOfTheLocalRound) {
  const CountSpec spec = CountRound(64, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(2000);
  for (const unsigned partitions : {0u /* auto */, 1u}) {
    const ExecutionPolicy process =
        ExecutionPolicy::Serial().WithPartitions(partitions).WithBackend(
            BackendMode::kProcess, 3);
    CollectingSink process_sink;
    const MapReduceMetrics got =
        RunRound(spec, std::span<const uint32_t>(inputs), &process_sink,
                 nullptr, process);
    CollectingSink local_sink;
    const MapReduceMetrics expected = RunRound(
        spec, std::span<const uint32_t>(inputs), &local_sink, nullptr,
        ExecutionPolicy::Serial().WithPartitions(
            process.EffectivePartitions()));
    const std::string label = "partitions=" + std::to_string(partitions);
    EXPECT_GE(got.shuffle.partitions, 3u) << label;
    EXPECT_EQ(got.shuffle.partitions, expected.shuffle.partitions) << label;
    EXPECT_GT(got.shuffle.max_partition_pairs, 0u) << label;
    EXPECT_EQ(got.shuffle.max_partition_pairs,
              expected.shuffle.max_partition_pairs)
        << label;
    EXPECT_TRUE(got == expected) << label;
    EXPECT_EQ(process_sink.assignments(), local_sink.assignments()) << label;
  }

  // Every key falls in partition 0 of 4, so reduce workers 1-3 own empty
  // partition groups; the round must still match the local round exactly.
  CountSpec skewed = CountRound(64, /*with_combiner=*/false);
  skewed.mapper = [](const uint32_t& input, Emitter<uint64_t>* emitter) {
    emitter->Emit(input % 4, 1);
  };
  CollectingSink process_sink;
  const MapReduceMetrics got = RunRound(
      skewed, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  CollectingSink local_sink;
  const MapReduceMetrics expected =
      RunRound(skewed, std::span<const uint32_t>(inputs), &local_sink,
               nullptr, ExecutionPolicy::Serial().WithPartitions(4));
  EXPECT_EQ(got.shuffle.process_workers, 8u);
  EXPECT_EQ(got.shuffle.partitions, 4u);
  EXPECT_EQ(got.shuffle.max_partition_pairs, inputs.size());
  EXPECT_EQ(got.shuffle.max_partition_pairs,
            expected.shuffle.max_partition_pairs);
  EXPECT_TRUE(got == expected);
  EXPECT_EQ(process_sink.assignments(), local_sink.assignments());
}

// A tight budget makes the coordinator's per-link channels spill to disk;
// semantics must be identical to the unbudgeted thread run.
TEST(ProcessBackend, SpillsUnderBudgetWithoutChangingResults) {
  const CountSpec spec = CountRound(256, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(20000);

  CollectingSink thread_sink;
  const MapReduceMetrics thread_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &thread_sink);

  CollectingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBudget(16 * 1024).WithBackend(
          BackendMode::kProcess, 2));

  EXPECT_GT(process_metrics.shuffle.pages_spilled, 0u);
  EXPECT_GT(process_metrics.shuffle.spill_files, 0u);
  EXPECT_TRUE(process_metrics == thread_metrics);
  EXPECT_EQ(process_sink.assignments(), thread_sink.assignments());
}

// ---------------------------------------------------------------------------
// Crash detection: dead or throwing workers raise, never hang
// ---------------------------------------------------------------------------

TEST(ProcessBackend, DeadMapWorkerRaisesErrorNamingTheWorker) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.mapper = [parent](const uint32_t& input, Emitter<uint64_t>* emitter) {
    if (getpid() != parent) _exit(3);
    emitter->Emit(input % 8, 1);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a dead map worker must raise";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "map worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "exited with status 3"))
        << error.what();
    EXPECT_TRUE(Contains(error.what(), "before finishing its stream"))
        << error.what();
  }
}

TEST(ProcessBackend, DeadReduceWorkerRaisesErrorNamingTheWorker) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.reducer = [parent](uint64_t, std::span<const uint64_t>,
                          ReduceContext*) {
    if (getpid() != parent) _exit(4);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a dead reduce worker must raise";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "reduce worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "exited with status 4"))
        << error.what();
  }
}

TEST(ProcessBackend, MapperExceptionTravelsBackWithItsMessage) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.mapper = [parent](const uint32_t& input, Emitter<uint64_t>* emitter) {
    if (getpid() != parent) {
      throw std::runtime_error("mapper exploded on purpose");
    }
    emitter->Emit(input % 8, 1);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a throwing mapper must raise in the coordinator";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "map worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "mapper exploded on purpose"))
        << error.what();
  }
}

TEST(ProcessBackend, ReducerExceptionTravelsBackWithItsMessage) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.reducer = [parent](uint64_t, std::span<const uint64_t>,
                          ReduceContext*) {
    if (getpid() != parent) {
      throw std::runtime_error("reducer exploded on purpose");
    }
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a throwing reducer must raise in the coordinator";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "reduce worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "reducer exploded on purpose"))
        << error.what();
  }
}

// A reduce worker reduces while its input still arrives, so a reducer that
// throws on a late key of a partition group spanning many link batches
// (400 000 pairs of about 12 bytes, one group) dies while the coordinator
// is still sending. The coordinator must read the worker's kError frame
// and report a child error carrying the reducer's message, not a crash.
TEST(ProcessBackend, ReducerExceptionMidInputSurfacesAsChildError) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(1000, /*with_combiner=*/false);
  spec.reducer = [parent](uint64_t key, std::span<const uint64_t>,
                          ReduceContext*) {
    if (getpid() != parent && key == 100) {
      throw std::runtime_error("reducer exploded on a late key");
    }
  };
  const std::vector<uint32_t> inputs = Iota(400000);
  for (const unsigned workers : {1u, 2u}) {
    CollectingSink sink;
    try {
      RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
               ExecutionPolicy::Serial().WithPartitions(1).WithBackend(
                   BackendMode::kProcess, workers));
      FAIL() << "a throwing reducer must raise in the coordinator";
    } catch (const WorkerError& error) {
      EXPECT_EQ(error.kind(), WorkerErrorKind::kChildError) << error.what();
      EXPECT_EQ(error.role(), "reduce");
      EXPECT_EQ(error.worker(), 0u);
      EXPECT_TRUE(Contains(error.what(), "reduce worker 0 failed"))
          << error.what();
      EXPECT_TRUE(Contains(error.what(), "reducer exploded on a late key"))
          << error.what();
    }
  }
}

// Empty input and empty shuffle: the process backend short-circuits
// without forking a reduce crew and still reports the same (all-zero)
// semantic metrics as the thread backend.
TEST(ProcessBackend, EmptyRoundsShortCircuit) {
  const CountSpec spec = CountRound(8, /*with_combiner=*/false);
  const std::vector<uint32_t> empty;
  CollectingSink sink;
  const MapReduceMetrics none = RunRound(
      spec, std::span<const uint32_t>(empty), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  EXPECT_EQ(none.input_records, 0u);
  EXPECT_EQ(none.key_value_pairs, 0u);
  EXPECT_TRUE(sink.assignments().empty());

  CountSpec silent = CountRound(8, /*with_combiner=*/false);
  silent.mapper = [](const uint32_t&, Emitter<uint64_t>*) {};
  const std::vector<uint32_t> inputs = Iota(10);
  const MapReduceMetrics quiet = RunRound(
      silent, std::span<const uint32_t>(inputs), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  EXPECT_EQ(quiet.input_records, 10u);
  EXPECT_EQ(quiet.key_value_pairs, 0u);
  EXPECT_EQ(quiet.distinct_keys, 0u);
}

}  // namespace
}  // namespace smr
