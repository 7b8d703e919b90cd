// Determinism tests for the parallel engine: a declared round run through
// JobDriver, and every map-reduce strategy built on the engine, must
// produce byte-identical metrics and identical instances — in the same
// emission order — for 1, 2, and 8 threads.

#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "core/triangle_algorithms.h"
#include "core/two_round_triangles.h"
#include "directed/directed_enumeration.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "labeled/labeled_enumeration.h"
#include "mapreduce/job.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace smr {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

// One global partition and automatic partitioning must both honor the
// determinism contract; the strategy harness below runs each strategy
// under both at every thread count.
const unsigned kPartitionCounts[] = {1, 0 /* auto */};

/// Runs one int round under `policy` through the declarative API.
template <typename Map, typename Reduce>
MapReduceMetrics RunIntRound(const std::vector<int>& inputs, Map map_fn,
                             Reduce reduce_fn, InstanceSink* sink,
                             uint64_t key_space,
                             const ExecutionPolicy& policy) {
  JobDriver driver(policy);
  return driver.RunRound(RoundSpec<int, int>{"test", map_fn, reduce_fn,
                                             key_space, {}},
                         inputs, sink);
}

DirectedGraph RandomDigraph(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::set<Arc> seen;
  std::vector<Arc> arcs;
  while (arcs.size() < m) {
    const NodeId u = static_cast<NodeId>(rng.Below(n));
    const NodeId v = static_cast<NodeId>(rng.Below(n));
    if (u == v) continue;
    if (!seen.insert({u, v}).second) continue;
    arcs.emplace_back(u, v);
  }
  return DirectedGraph(n, std::move(arcs));
}

TEST(EngineParallel, RawRoundIdenticalAcrossThreadCounts) {
  // A round with skewed groups: key = value % 7, so group sizes differ and
  // chunk boundaries land mid-stream.
  std::vector<int> inputs(1000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);

  auto map_fn = [](const int& value, Emitter<int>* out) {
    out->Emit(static_cast<uint64_t>(value % 7), value);
    if (value % 3 == 0) out->Emit(static_cast<uint64_t>(value % 5), -value);
  };
  auto reduce_fn = [](uint64_t key, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->edges_scanned += values.size();
    for (const int v : values) {
      if (v >= 0 && static_cast<uint64_t>(v % 7) == key) {
        const NodeId node = static_cast<NodeId>(v);
        context->EmitInstance(std::span<const NodeId>(&node, 1));
      }
    }
  };

  CollectingSink serial_sink;
  const MapReduceMetrics serial = RunIntRound(
      inputs, map_fn, reduce_fn, &serial_sink, 7, ExecutionPolicy::Serial());
  ASSERT_GT(serial.outputs, 0u);

  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      CollectingSink sink;
      const MapReduceMetrics metrics = RunIntRound(
          inputs, map_fn, reduce_fn, &sink, 7,
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions));
      EXPECT_EQ(metrics, serial) << "threads=" << threads;
      // Emission order, not just multiset, must match the serial engine.
      EXPECT_EQ(sink.assignments(), serial_sink.assignments())
          << "threads=" << threads;
    }
  }
}

TEST(EngineParallel, MoreThreadsThanKeysOrInputs) {
  const std::vector<int> inputs = {1, 2, 3};
  auto map_fn = [](const int& value, Emitter<int>* out) {
    out->Emit(0, value);
  };
  auto reduce_fn = [](uint64_t, std::span<const int> values,
                      ReduceContext* context) {
    context->cost->candidates += values.size();
  };
  const MapReduceMetrics serial = RunIntRound(
      inputs, map_fn, reduce_fn, nullptr, 1, ExecutionPolicy::Serial());
  const MapReduceMetrics wide = RunIntRound(
      inputs, map_fn, reduce_fn, nullptr, 1, ExecutionPolicy::WithThreads(64));
  EXPECT_EQ(wide, serial);
  EXPECT_EQ(wide.distinct_keys, 1u);
}

TEST(EngineParallel, EmptyInputAllThreadCounts) {
  const std::vector<int> inputs;
  auto map_fn = [](const int&, Emitter<int>*) {};
  auto reduce_fn = [](uint64_t, std::span<const int>, ReduceContext*) {};
  for (const unsigned threads : kThreadCounts) {
    const MapReduceMetrics metrics =
        RunIntRound(inputs, map_fn, reduce_fn, nullptr, 9,
                    ExecutionPolicy::WithThreads(threads));
    EXPECT_EQ(metrics.key_value_pairs, 0u);
    EXPECT_EQ(metrics.distinct_keys, 0u);
    EXPECT_EQ(metrics.key_space, 9u);
  }
}

// Shared harness: run `strategy` at every thread count and require metrics
// and sorted instance keys identical to the 1-thread run.
template <typename RunFn>
void ExpectStrategyDeterministic(const SampleGraph& pattern,
                                 const RunFn& strategy) {
  CollectingSink serial_sink;
  const MapReduceMetrics serial =
      strategy(ExecutionPolicy::Serial(), &serial_sink);
  const std::vector<InstanceKey> serial_keys = KeysOf(serial_sink, pattern);
  ASSERT_GT(serial.outputs, 0u) << "strategy found no instances; the "
                                   "determinism check would be vacuous";

  for (const unsigned threads : kThreadCounts) {
    for (const unsigned partitions : kPartitionCounts) {
      CollectingSink sink;
      const MapReduceMetrics metrics = strategy(
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions),
          &sink);
      EXPECT_EQ(metrics, serial)
          << "threads=" << threads << " partitions=" << partitions;
      EXPECT_EQ(KeysOf(sink, pattern), serial_keys)
          << "threads=" << threads << " partitions=" << partitions;
    }
  }
}

TEST(EngineParallel, BucketOrientedTriangle) {
  const Graph g = ErdosRenyi(300, 1800, 11);
  const SampleGraph pattern = SampleGraph::Triangle();
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return StrategyRegistry::Global()
            .Run(EnumerationQuery::Undirected(pattern, g)
                     .WithStrategy("bucket:4")
                     .WithPolicy(policy)
                     .WithSink(sink))
            .metrics;
      });
}

TEST(EngineParallel, BucketOrientedSquare) {
  const Graph g = ErdosRenyi(120, 900, 5);
  const SampleGraph pattern = SampleGraph::Square();
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return StrategyRegistry::Global()
            .Run(EnumerationQuery::Undirected(pattern, g)
                     .WithStrategy("bucket:3")
                     .WithSeed(2)
                     .WithPolicy(policy)
                     .WithSink(sink))
            .metrics;
      });
}

TEST(EngineParallel, BucketOrientedLollipop) {
  const Graph g = ErdosRenyi(100, 800, 9);
  const SampleGraph pattern = SampleGraph::Lollipop();
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return StrategyRegistry::Global()
            .Run(EnumerationQuery::Undirected(pattern, g)
                     .WithStrategy("bucket:3")
                     .WithSeed(4)
                     .WithPolicy(policy)
                     .WithSink(sink))
            .metrics;
      });
}

TEST(EngineParallel, VariableOrientedTriangle) {
  const Graph g = ErdosRenyi(250, 1500, 3);
  const SampleGraph pattern = SampleGraph::Triangle();
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return StrategyRegistry::Global()
            .Run(EnumerationQuery::Undirected(pattern, g)
                     .WithStrategy("variable:3x3x3")
                     .WithPolicy(policy)
                     .WithSink(sink))
            .metrics;
      });
}

TEST(EngineParallel, TriangleAlgorithms) {
  const Graph g = ErdosRenyi(400, 2400, 17);
  const SampleGraph pattern = SampleGraph::Triangle();
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return PartitionTriangles(g, 5, 1, sink, policy);
      });
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return MultiwayJoinTriangles(g, 3, 1, sink, policy);
      });
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return OrderedBucketTriangles(g, 4, 1, sink, policy);
      });
}

TEST(EngineParallel, TwoRoundTriangles) {
  const Graph g = ErdosRenyi(400, 2400, 23);
  const SampleGraph pattern = SampleGraph::Triangle();
  const NodeOrder order = NodeOrder::ByDegree(g);
  ExpectStrategyDeterministic(
      pattern, [&](const ExecutionPolicy& policy, InstanceSink* sink) {
        return TwoRoundTriangles(g, order, sink, policy).round2;
      });
}

TEST(EngineParallel, LabeledBucketOriented) {
  // Mixed-label triangle: exercises the labeled reducer's nested sink and
  // cross-CQ state under concurrency.
  Rng rng(19);
  std::vector<LabeledEdge> edges;
  std::set<std::pair<NodeId, NodeId>> seen;
  while (edges.size() < 700) {
    NodeId u = static_cast<NodeId>(rng.Below(120));
    NodeId v = static_cast<NodeId>(rng.Below(120));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    edges.push_back({u, v, static_cast<EdgeLabel>(rng.Below(2))});
  }
  const LabeledGraph g(120, std::move(edges));
  const LabeledSampleGraph pattern(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}});

  CollectingSink serial_sink;
  const MapReduceMetrics serial = LabeledBucketOrientedEnumerate(
      pattern, g, 3, 1, &serial_sink, ExecutionPolicy::Serial());
  ASSERT_GT(serial.outputs, 0u);
  for (const unsigned threads : kThreadCounts) {
    CollectingSink sink;
    const MapReduceMetrics metrics = LabeledBucketOrientedEnumerate(
        pattern, g, 3, 1, &sink, ExecutionPolicy::WithThreads(threads));
    EXPECT_EQ(metrics, serial) << "threads=" << threads;
    EXPECT_EQ(sink.assignments(), serial_sink.assignments())
        << "threads=" << threads;
  }
}

TEST(EngineParallel, DirectedBucketOriented) {
  const DirectedGraph g = RandomDigraph(150, 900, 13);
  const DirectedSampleGraph pattern = DirectedSampleGraph::CycleTriad();
  CollectingSink serial_sink;
  const MapReduceMetrics serial = DirectedBucketOrientedEnumerate(
      pattern, g, 3, 1, &serial_sink, ExecutionPolicy::Serial());
  ASSERT_GT(serial.outputs, 0u);
  for (const unsigned threads : kThreadCounts) {
    CollectingSink sink;
    const MapReduceMetrics metrics = DirectedBucketOrientedEnumerate(
        pattern, g, 3, 1, &sink, ExecutionPolicy::WithThreads(threads));
    EXPECT_EQ(metrics, serial) << "threads=" << threads;
    EXPECT_EQ(sink.assignments(), serial_sink.assignments())
        << "threads=" << threads;
  }
}

TEST(EngineParallel, CallbackExceptionsPropagateAtEveryThreadCount) {
  // A throwing reducer must surface a catchable exception under every
  // policy, not std::terminate the process from a worker thread.
  std::vector<int> inputs(100);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  auto map_fn = [](const int& value, Emitter<int>* out) {
    out->Emit(static_cast<uint64_t>(value % 10), value);
  };
  auto reduce_fn = [](uint64_t key, std::span<const int>, ReduceContext*) {
    if (key == 7) throw std::runtime_error("reducer 7 failed");
  };
  for (const unsigned threads : kThreadCounts) {
    const auto run = [&] {
      RunIntRound(inputs, map_fn, reduce_fn, nullptr, 10,
                  ExecutionPolicy::WithThreads(threads));
    };
    EXPECT_THROW(run(), std::runtime_error) << "threads=" << threads;
  }
}

TEST(EngineParallel, DirectedColdAutomorphismCache) {
  // A freshly built pattern's lazy automorphism cache must be safe to use
  // from a parallel-first run (the engine warms it before the round).
  const DirectedGraph g = RandomDigraph(100, 600, 31);
  CollectingSink cold_sink;
  const MapReduceMetrics cold = DirectedBucketOrientedEnumerate(
      DirectedSampleGraph::CycleTriad(), g, 3, 1, &cold_sink,
      ExecutionPolicy::WithThreads(8));
  CollectingSink serial_sink;
  const MapReduceMetrics serial = DirectedBucketOrientedEnumerate(
      DirectedSampleGraph::CycleTriad(), g, 3, 1, &serial_sink,
      ExecutionPolicy::Serial());
  EXPECT_EQ(cold, serial);
  EXPECT_EQ(cold_sink.assignments(), serial_sink.assignments());
}

TEST(EngineParallel, CountingSinkUnbufferedPathMatches) {
  // CountingSink takes the engine's O(1)-memory EmitCount path in parallel
  // runs; the count must match the buffered CollectingSink and the metrics.
  const Graph g = ErdosRenyi(300, 1800, 11);
  const SampleGraph triangle = SampleGraph::Triangle();
  const auto run = [&](const ExecutionPolicy& policy, InstanceSink* sink) {
    return StrategyRegistry::Global()
        .Run(EnumerationQuery::Undirected(triangle, g)
                 .WithStrategy("bucket:4")
                 .WithPolicy(policy)
                 .WithSink(sink))
        .metrics;
  };
  CollectingSink collecting;
  const MapReduceMetrics reference =
      run(ExecutionPolicy::Serial(), &collecting);
  for (const unsigned threads : kThreadCounts) {
    CountingSink counting;
    const MapReduceMetrics metrics =
        run(ExecutionPolicy::WithThreads(threads), &counting);
    EXPECT_EQ(metrics, reference) << "threads=" << threads;
    EXPECT_EQ(counting.count(), collecting.assignments().size())
        << "threads=" << threads;
  }
}

TEST(EngineParallel, ParallelMatchesGroundTruth) {
  // Beyond matching the serial engine, the 8-thread run must still match
  // the reference serial matcher ("each instance exactly once").
  const Graph g = ErdosRenyi(200, 1400, 29);
  const SampleGraph pattern = SampleGraph::Triangle();
  CollectingSink sink;
  StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, g)
          .WithStrategy("bucket:4")
          .WithSeed(7)
          .WithPolicy(ExecutionPolicy::WithThreads(8))
          .WithSink(&sink));
  EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g));
}

}  // namespace
}  // namespace smr
